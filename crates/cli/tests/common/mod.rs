//! Helpers the `hcl` binary's end-to-end suites share: the binary, a
//! per-test scratch directory, and a container built from a graph.
// Each suite uses its own subset.
#![allow(dead_code)]

use hcl_core::Graph;
use std::path::PathBuf;
use std::process::Command;

pub fn hcl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcl"))
}

/// A per-test scratch directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcl_{}_test_{}_{tag}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        std::fs::create_dir_all(&p).expect("create scratch dir");
        Self(p)
    }

    pub fn file(&self, name: &str, contents: &str) -> PathBuf {
        let p = self.0.join(name);
        std::fs::write(&p, contents).expect("write scratch file");
        p
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Writes `g` as a `u v` edge list the CLI can rebuild (trailing isolated
/// vertices are not representable in an edge list).
pub fn edge_list(g: &Graph) -> String {
    let mut out = String::new();
    for u in 0..g.num_vertices() as u32 {
        for &w in g.as_view().neighbors(u) {
            if w > u {
                out.push_str(&format!("{u} {w}\n"));
            }
        }
    }
    out
}

/// `hcl build`s `edges` into `<tag>.hcl` in `scratch` with `landmarks`
/// landmarks.
pub fn build_index(scratch: &Scratch, tag: &str, edges: &str, landmarks: usize) -> PathBuf {
    let graph = scratch.file(&format!("{tag}.edges"), edges);
    let index = scratch.path(&format!("{tag}.hcl"));
    let out = hcl()
        .arg("build")
        .arg(&graph)
        .arg("--out")
        .arg(&index)
        .args(["--landmarks", &landmarks.to_string()])
        .output()
        .expect("spawn hcl build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    index
}
