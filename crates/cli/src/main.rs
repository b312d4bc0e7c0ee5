//! `hcl` — build, persist, inspect, and serve highway-cover distance
//! indexes.
//!
//! ```text
//! hcl build <graph.edges> [--out FILE.hcl] [--landmarks K] [--threads T]
//!           [--progress]
//! hcl query (--index FILE.hcl [--trusted] | <graph.edges> [--landmarks K])
//!           [--queries FILE | --random N] [--seed S]
//!           [--workers W] [--verify] [--explain]
//! hcl serve (--index FILE.hcl [--trusted] | <graph.edges> [--landmarks K])
//!           [--workers W] [--compact-after N]
//!           [--slow-log-us N] [--quiet]
//! hcl update <FILE.hcl> [--deltas FILE] [--compact-after N] [--compact]
//! hcl inspect <FILE.hcl> [--stats]
//! ```
//!
//! `build` parses a whitespace `u v` edge list (blank lines and `#`/`%`
//! comment lines are skipped), runs the labelling once, and writes a
//! versioned, checksummed `.hcl` container. `query --index` and `serve
//! --index` memory-map that container and answer queries with **no
//! rebuild and no deserialisation** — the serving path the paper's scheme
//! exists for; `--trusted` skips the whole-file checksum pass for files a
//! trusted pipeline stage just wrote, and `--workers` fans the workload
//! out over a thread pool sharing the single mapped index (output is the
//! same bytes at every worker count — see the `pool` module). Every serve
//! transport answers and updates through one request pipeline (the
//! `pipeline` module).
//! `inspect` dumps header metadata and the section table.
//!
//! Answers are printed as `u v d` (`d` is `inf` for disconnected pairs) on
//! stdout; timing and index statistics go to stderr so stdout stays
//! machine-readable. `--verify` re-checks every answer against the BFS
//! oracle, regardless of backing.

// The only unsafe in this binary is the POSIX `signal(2)` FFI, confined
// to `server::sig` behind a scoped allow; everything else is checked.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod metrics;
mod pipeline;
mod pool;
mod scrub;
mod server;
mod slowlog;
mod sync;
mod update;

use hcl_core::{bfs, EdgeDelta, Graph, GraphBuilder, VertexId};
use hcl_index::{BuildOptions, HighwayCoverIndex, QueryContext, QueryStats};
use hcl_store::IndexStore;
use std::io::{BufRead, ErrorKind, IsTerminal, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: hcl <command> [args]\n\
     \n\
     commands:\n\
       build <graph.edges> [--out FILE.hcl] [--landmarks K] [--threads T]\n\
             [--progress]\n\
           Build the highway-cover index once and persist it (default\n\
           output: <graph.edges>.hcl). The K highest-degree vertices are\n\
           the landmarks, swept 64 at a time; --threads shards those groups\n\
           over T worker threads (default: HCL_BUILD_THREADS or all\n\
           available cores; at most one worker per 64 landmarks ever\n\
           starts), and the output is byte-identical at every thread\n\
           count. --progress streams per-phase lines (selection, each\n\
           sweep group with its levels, activations, entries and covered\n\
           arrivals, the label fill) to stderr. Build counters (BFS visits, covered arrivals,\n\
           per-landmark label contributions) are always recorded in the\n\
           container and shown by inspect --stats.\n\
       query (--index FILE.hcl [--trusted] | <graph.edges> [--landmarks K]\n\
             [--threads T]) [--queries FILE | --random N]\n\
             [--seed S] [--workers W] [--verify] [--explain]\n\
           Answer `u v` distance queries. With --index the saved container\n\
           is memory-mapped and served zero-copy — no rebuild; --trusted\n\
           additionally skips the whole-file checksum pass (for files this\n\
           pipeline just wrote). Queries come from --queries, --random, or\n\
           stdin; answers are `u v d` lines (`inf` when disconnected), in\n\
           input order regardless of --workers. Out-of-range ids are\n\
           reported with their source line and skipped. --workers W\n\
           answers the workload on W threads sharing one index (0 = all\n\
           cores). --verify re-checks against a BFS oracle. --explain\n\
           prints one per-query trace line to stderr (answer source,\n\
           merge kind, hub entries scanned, residual-BFS work); stdout\n\
           stays byte-identical to a run without it. --explain answers\n\
           sequentially, so it ignores --workers.\n\
       serve (--index FILE.hcl [--trusted] | <graph.edges> [--landmarks K]\n\
             [--threads T]) [--workers W] [--listen ADDR]\n\
             [--max-inflight N] [--write-timeout-ms MS]\n\
             [--reload-signal hup|usr1|none] [--reload-retries N]\n\
             [--reload-backoff-ms MS] [--scrub-interval-s N]\n\
             [--slow-log-us N] [--slow-log-file F] [--quiet]\n\
           Serving loop: read `u v` per line on stdin. --workers W query\n\
           threads (default 1; 0 = all cores) share the index; answers\n\
           are written in input order, the same bytes at every W, and are\n\
           sent whenever input pauses or a chunk of 256 fills — one\n\
           answer per line for an interactive client, full chunks for a\n\
           piped batch. Bad lines are reported and skipped; a closed\n\
           stdout (e.g. `| head`) is a clean shutdown. The session ends\n\
           with a latency summary (p50/p90/p99/mean, each line parsed to\n\
           its answer flushed) on stderr.\n\
           --listen ADDR serves sockets instead of stdin: newline `u v`\n\
           requests answered as `u v d` lines, plus HTTP GET /query?s=&t=,\n\
           /healthz, /metrics, and /reload (zero-downtime generation swap\n\
           of the --index file; also triggered by --reload-signal, default\n\
           hup). --workers handler threads (default: all cores) serve one\n\
           connection each; beyond --max-inflight queued connections\n\
           (default 1024) new connects are rejected busy; answers that\n\
           stall past --write-timeout-ms (default 30000) drop that\n\
           connection. SIGTERM/SIGINT or stdin EOF drains gracefully.\n\
           A failed reload retries up to --reload-retries times (default\n\
           0) with exponential backoff starting at --reload-backoff-ms\n\
           (default 100); all attempts are serialised, and the old\n\
           generation serves throughout. --scrub-interval-s N (default\n\
           0 = off) runs a background integrity scrubber every N seconds\n\
           re-checksumming the live generation and the --index file;\n\
           detected corruption turns /healthz into 503 `degraded` (queries\n\
           keep flowing) until a clean pass or good reload clears it.\n\
           --slow-log-us N logs every query slower than N µs as one JSON\n\
           line (endpoints, latency, trace fields, worker, generation) to\n\
           stderr, or to F with --slow-log-file (rate-limited; drops are\n\
           counted and reported at shutdown). --quiet suppresses the\n\
           stderr latency summary line; diagnostics and exit codes are\n\
           unchanged.\n\
           Live edge updates: a stdin line `+u v` inserts the edge (u, v)\n\
           and `-u v` deletes it — the index is repaired incrementally\n\
           (no rebuild), answers after the line reflect the edit, and\n\
           with --index the journalled container is written back to disk.\n\
           In listen mode, POST /update with a body of such lines does\n\
           the same atomically (in-flight queries finish on the old\n\
           generation). --compact-after N folds the journal into the\n\
           base sections once N deltas accumulate (0 = never, default).\n\
       update <FILE.hcl> [--deltas FILE] [--compact-after N] [--compact]\n\
              [--trusted]\n\
           Apply a script of `+u v` / `-u v` edge deltas to a saved\n\
           container offline, repairing the labels incrementally (no\n\
           rebuild) and journalling the deltas for crash-safe replay at\n\
           open. Deltas come from --deltas FILE or stdin; every\n\
           non-comment line must be a delta (strict, unlike serve).\n\
           --compact folds the journal into the base sections now;\n\
           --compact-after N folds automatically once N deltas are\n\
           pending. --trusted skips the open-time checksum pass.\n\
       inspect <FILE.hcl> [--stats]\n\
           Print header metadata, build statistics, journal state\n\
           (pending deltas, size, compactions), and the section table.\n\
           --stats adds the label-size histogram (p50/p99/max entries per\n\
           vertex), the top hubs by label frequency, and the recorded\n\
           build counters (BFS visits, covered share, per-landmark\n\
           contributions) when the container carries them.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0)
}

// ---------------------------------------------------------------------------
// Edge-list / query-pair parsing
// ---------------------------------------------------------------------------

/// Hands every `u v` pair of an edge-list or query file's bytes to
/// `pair(lineno, u, v)` in input order, `lineno` 1-based, so diagnostics
/// the scan cannot make (out-of-range ids need the graph) can still point
/// at the input.
///
/// Lines split at `\n` with one trailing `\r` dropped, exactly as
/// `BufRead::lines` splits them. A line of the common shape — see
/// [`fast_pair`] — is taken without further checks; every other line
/// (tabs, CR, padding, signs, long ids, comments, blanks, errors) goes
/// through [`parse_pair_line`], so what is accepted and every error text
/// are those of a line-by-line parse: blank lines and `#`/`%` comment
/// lines are skipped, a malformed line fails as `<source>:<line>:
/// <problem>` quoting the token, and a line that is not UTF-8 fails as
/// `reading <source>: stream did not contain valid UTF-8`.
fn scan_pairs(
    bytes: &[u8],
    what: &str,
    mut pair: impl FnMut(usize, VertexId, VertexId),
) -> Result<(), String> {
    let mut rest = bytes;
    let mut lineno = 0;
    while !rest.is_empty() {
        lineno += 1;
        if let Some((u, v, len)) = fast_pair(rest) {
            pair(lineno, u, v);
            rest = &rest[len..];
            continue;
        }
        let (line, next) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let line = std::str::from_utf8(line)
            .map_err(|_| format!("reading {what}: stream did not contain valid UTF-8"))?;
        if let Some((u, v)) = parse_pair_line(line, what, lineno)? {
            pair(lineno, u, v);
        }
        rest = next;
    }
    Ok(())
}

/// The common line shape: `digits SP digits` ending in `\n` or the end of
/// the input, each id at most 10 digits and at most `u32::MAX`. Returns
/// the pair and the bytes the line takes, its `\n` included; `None` for
/// any other line.
fn fast_pair(s: &[u8]) -> Option<(VertexId, VertexId, usize)> {
    let (u, i) = fast_id(s, 0)?;
    if s.get(i) != Some(&b' ') {
        return None;
    }
    let (v, j) = fast_id(s, i + 1)?;
    match s.get(j) {
        None => Some((u, v, j)),
        Some(b'\n') => Some((u, v, j + 1)),
        Some(_) => None,
    }
}

/// A run of 1–10 ASCII digits at `s[start..]` worth at most `u32::MAX`,
/// and the index just past it.
fn fast_id(s: &[u8], start: usize) -> Option<(VertexId, usize)> {
    let mut value = 0u64;
    let mut i = start;
    while let Some(&b) = s.get(i).filter(|b| b.is_ascii_digit()) {
        if i - start == 10 {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        i += 1;
    }
    if i == start {
        return None;
    }
    Some((VertexId::try_from(value).ok()?, i))
}

/// Reads a whole input file; a failed open keeps the `opening` text, a
/// failed read the `reading` one a line-by-line reader would give.
fn read_input(path: &str) -> Result<Vec<u8>, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| format!("reading {path}: {e}"))?;
    Ok(bytes)
}

/// Reads the next line into `buf` (cleared first), dropping its `\n` or
/// `\r\n` as `BufRead::lines` does; `Ok(false)` at end of input. One
/// buffer serves a whole stdin loop.
pub(crate) fn next_line(input: &mut impl BufRead, buf: &mut String) -> std::io::Result<bool> {
    buf.clear();
    if input.read_line(buf)? == 0 {
        return Ok(false);
    }
    if buf.ends_with('\n') {
        buf.pop();
        if buf.ends_with('\r') {
            buf.pop();
        }
    }
    Ok(true)
}

/// Parses one line; `Ok(None)` for blanks and comments.
pub(crate) fn parse_pair_line(
    line: &str,
    what: &str,
    lineno: usize,
) -> Result<Option<(VertexId, VertexId)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let parse = |tok: Option<&str>| -> Result<VertexId, String> {
        let tok = tok.ok_or_else(|| format!("{what}:{lineno}: expected two vertex ids"))?;
        tok.parse().map_err(|_| {
            format!("{what}:{lineno}: invalid vertex id `{tok}` (expected a non-negative integer)")
        })
    };
    let u = parse(it.next())?;
    let v = parse(it.next())?;
    if let Some(extra) = it.next() {
        return Err(format!(
            "{what}:{lineno}: unexpected trailing token `{extra}` — expected exactly two vertex \
             ids per line (weighted edge lists are not supported)"
        ));
    }
    Ok(Some((u, v)))
}

/// Where an edge-list load went: reading the file, scanning it into the
/// builder, and building the CSR.
struct LoadPhases {
    read: Duration,
    parse: Duration,
    csr: Duration,
}

impl std::fmt::Display for LoadPhases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {:.1?}, parse {:.1?}, csr {:.1?}",
            self.read, self.parse, self.csr
        )
    }
}

fn load_graph(path: &str) -> Result<(Graph, LoadPhases), String> {
    let t0 = Instant::now();
    let bytes = read_input(path)?;
    let t1 = Instant::now();
    let mut b = GraphBuilder::new();
    scan_pairs(&bytes, path, |_, u, v| {
        b.add_edge(u, v);
    })?;
    drop(bytes);
    let t2 = Instant::now();
    let graph = b.build();
    let phases = LoadPhases {
        read: t1 - t0,
        parse: t2 - t1,
        csr: t2.elapsed(),
    };
    Ok((graph, phases))
}

// ---------------------------------------------------------------------------
// Shared option plumbing
// ---------------------------------------------------------------------------

fn next_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} expects a value");
        usage()
    })
}

fn parse_or_usage<T: std::str::FromStr>(value: String, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value for {flag}: `{value}`");
        usage()
    })
}

/// Default landmark count when `--landmarks` is not passed.
const DEFAULT_LANDMARKS: usize = 16;

/// One-line heads-up when an **explicitly requested** landmark count is
/// silently clamped: the index that gets built (and persisted) has fewer
/// landmarks than asked for, which would otherwise only surface in
/// inspect output much later. The built-in default clamping on small
/// graphs is expected behaviour and stays quiet — the user never asked
/// for 16.
fn resolve_landmarks(requested: Option<usize>, n: usize) -> usize {
    match requested {
        Some(k) => {
            if k > n {
                eprintln!(
                    "warning: requested {k} landmarks but the graph has {n} vertices; \
                     building with {n}"
                );
            }
            k
        }
        None => DEFAULT_LANDMARKS,
    }
}

/// Builder thread count: explicit `--threads` wins, then the
/// `HCL_BUILD_THREADS` environment variable, then every available core.
/// The count never changes the built index, only how fast it appears.
fn resolve_build_threads(explicit: Option<usize>) -> usize {
    explicit.filter(|&t| t > 0).unwrap_or_else(|| {
        BuildOptions::threads_from_env(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Serving worker count: `--workers 0` means every available core;
/// absent means 1. Never changes any answer or any output byte, only
/// throughput.
fn resolve_workers(explicit: Option<usize>) -> usize {
    match explicit {
        Some(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(w) => w,
        None => 1,
    }
}

/// Opens the index to serve and reports the load on stderr: mmap'd from
/// a container, or built from an edge list and served as an in-memory
/// image of the container `hcl build` would write. `trusted` skips the
/// container's whole-file checksum pass (structural and semantic
/// validation still run).
fn open_or_build(
    index_path: Option<&str>,
    graph_path: Option<&str>,
    num_landmarks: Option<usize>,
    threads: usize,
    trusted: bool,
) -> Result<IndexStore, String> {
    match (index_path, graph_path) {
        (Some(path), None) => {
            let t0 = Instant::now();
            let store = if trusted {
                IndexStore::open_trusted(path)
            } else {
                IndexStore::open(path)
            }
            .map_err(|e| format!("opening {path}: {e}"))?;
            let load_time = t0.elapsed();
            let meta = store.meta();
            eprintln!(
                "index file: {} vertices, {} edges, {} landmarks, {} label entries \
                 ({:.1} KiB file, {} backing, loaded+{} in {:.1?} ({}), no rebuild)",
                meta.num_vertices,
                meta.num_edges,
                meta.num_landmarks,
                meta.label_entries,
                store.len_bytes() as f64 / 1024.0,
                store.backing_kind(),
                if trusted {
                    "trusted (checksum skipped)"
                } else {
                    "validated"
                },
                load_time,
                store.open_phases()
            );
            Ok(store)
        }
        (None, Some(path)) => {
            let t0 = Instant::now();
            let (graph, load_phases) = load_graph(path)?;
            let load_time = t0.elapsed();
            let num_landmarks = resolve_landmarks(num_landmarks, graph.num_vertices());
            let options = BuildOptions {
                num_landmarks,
                threads,
                ..BuildOptions::default()
            };
            let t1 = Instant::now();
            let index = HighwayCoverIndex::build_with(&graph, &options);
            let build_time = t1.elapsed();
            let stats = index.stats();
            eprintln!(
                "graph: {} vertices, {} edges (loaded in {:.1?} ({load_phases}))",
                graph.num_vertices(),
                graph.num_edges(),
                load_time
            );
            eprintln!(
                "index: {} landmarks, {} label entries (avg {:.2}/vertex, max {}), \
                 {:.1} KiB, built in {:.1?} with {threads} thread(s)",
                stats.num_landmarks,
                stats.total_label_entries,
                stats.avg_label_size,
                stats.max_label_size,
                stats.bytes as f64 / 1024.0,
                build_time
            );
            // Trusted: these bytes were produced in-process, so a CRC pass
            // over them proves nothing.
            let image = hcl_store::serialize(&graph, &index)
                .map_err(|e| format!("serialising built index: {e}"))?;
            // The image holds both from here; free them before it is
            // copied into the store's aligned buffer.
            drop((graph, index));
            IndexStore::from_bytes_trusted(&image)
                .map_err(|e| format!("re-opening built index image: {e}"))
        }
        (Some(_), Some(g)) => Err(format!(
            "pass either --index or an edge-list path, not both (got `{g}` too)"
        )),
        (None, None) => Err("no input: pass --index FILE.hcl or an edge-list path".into()),
    }
}

// ---------------------------------------------------------------------------
// hcl build
// ---------------------------------------------------------------------------

fn cmd_build(args: Vec<String>) -> Result<(), String> {
    let mut graph_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut num_landmarks: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut progress = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "-o" => out_path = Some(next_value(&mut args, "--out")),
            "--progress" => progress = true,
            "--landmarks" | "-k" => {
                num_landmarks = Some(parse_or_usage(
                    next_value(&mut args, "--landmarks"),
                    "--landmarks",
                ))
            }
            "--threads" | "-t" => {
                threads = Some(parse_or_usage(
                    next_value(&mut args, "--threads"),
                    "--threads",
                ))
            }
            "--help" | "-h" => help(),
            _ if graph_path.is_none() && !arg.starts_with('-') => graph_path = Some(arg),
            _ => {
                eprintln!("error: unrecognised argument `{arg}`");
                usage()
            }
        }
    }
    let graph_path = graph_path.unwrap_or_else(|| {
        eprintln!("error: build needs an edge-list path");
        usage()
    });
    let out_path = out_path.unwrap_or_else(|| format!("{graph_path}.hcl"));

    let t0 = Instant::now();
    let (graph, load_phases) = load_graph(&graph_path)?;
    let load_time = t0.elapsed();
    let options = BuildOptions {
        num_landmarks: resolve_landmarks(num_landmarks, graph.num_vertices()),
        threads: resolve_build_threads(threads),
        ..BuildOptions::default()
    };
    let t1 = Instant::now();
    let mut progress_sink = |line: String| eprintln!("{line}");
    let (index, build_stats) = HighwayCoverIndex::build_with_stats(
        &graph,
        &options,
        progress.then_some(&mut progress_sink as &mut dyn FnMut(String)),
    );
    let build_time = t1.elapsed();
    let stats = index.stats();
    let t2 = Instant::now();
    // The thread count is left unrecorded (0) so that the same edge list
    // builds the same file on every host and at every --threads value.
    let build_info = hcl_store::BuildInfo {
        batch_size: options.resolved_batch_size() as u32,
        ..hcl_store::BuildInfo::default()
    };
    // The container always carries the build counters (they are
    // deterministic — independent of thread count — so they keep that
    // identity). Wall times are not persisted: they would break it.
    let stored_stats = hcl_store::StoredBuildStats::from_build(&build_stats);
    let image = hcl_store::serialize_with_stats(&graph, &index, build_info, &stored_stats)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    let serialise_time = t2.elapsed();
    let t3 = Instant::now();
    // `SystemIo` proceeds at every step, so a success is always
    // `Committed`: the container is in place and durable.
    hcl_store::durable::publish_with(
        std::path::Path::new(&out_path),
        &image,
        &hcl_store::durable::SystemIo,
    )
    .map_err(|e| format!("writing {out_path}: {e}"))?;
    let publish_time = t3.elapsed();

    if progress {
        eprintln!(
            "phases: selection {}µs, sweeps {}µs over {} group(s), fill {}µs",
            build_stats.selection_us,
            build_stats.batch_us.iter().sum::<u64>(),
            build_stats.batch_us.len(),
            build_stats.closure_us
        );
        eprintln!(
            "labelling: {} BFS visits, {} label entries, {} covered ({:.1}%)",
            build_stats.bfs_visits,
            build_stats.label_insertions,
            build_stats.dominated,
            build_stats.domination_cut_rate() * 100.0
        );
    }

    eprintln!(
        "graph: {} vertices, {} edges (loaded in {:.1?} ({load_phases}))",
        graph.num_vertices(),
        graph.num_edges(),
        load_time
    );
    eprintln!(
        "index: {} landmarks, {} label entries (avg {:.2}/vertex, max {}), built in {:.1?} \
         with {} thread(s)",
        stats.num_landmarks,
        stats.total_label_entries,
        stats.avg_label_size,
        stats.max_label_size,
        build_time,
        options.threads
    );
    eprintln!(
        "wrote {out_path}: {} bytes ({:.1} KiB) in {:.1?} (serialise {serialise_time:.1?}, \
         publish {publish_time:.1?})",
        image.len(),
        image.len() as f64 / 1024.0,
        serialise_time + publish_time
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl query
// ---------------------------------------------------------------------------

struct QueryOptions {
    index_path: Option<String>,
    graph_path: Option<String>,
    /// `Some` only when `--landmarks` was passed explicitly, so serving
    /// from a stored index can reject the flag instead of ignoring it.
    num_landmarks: Option<usize>,
    /// Same deal for `--threads` (build-time only).
    threads: Option<usize>,
    queries_path: Option<String>,
    random_queries: Option<usize>,
    seed: u64,
    verify: bool,
    /// Query-pool worker threads (`--workers`); `Some(0)` = all cores.
    workers: Option<usize>,
    /// Skip the container checksum pass (`--trusted`; `--index` only).
    trusted: bool,
    /// Print a per-query trace line to stderr (`--explain`). Stdout stays
    /// byte-identical to a run without the flag.
    explain: bool,
}

fn parse_query_args(args: Vec<String>) -> QueryOptions {
    let mut opts = QueryOptions {
        index_path: None,
        graph_path: None,
        num_landmarks: None,
        threads: None,
        queries_path: None,
        random_queries: None,
        seed: 0xC0FFEE,
        verify: false,
        workers: None,
        trusted: false,
        explain: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--index" | "-i" => opts.index_path = Some(next_value(&mut args, "--index")),
            "--landmarks" | "-k" => {
                opts.num_landmarks = Some(parse_or_usage(
                    next_value(&mut args, "--landmarks"),
                    "--landmarks",
                ))
            }
            "--threads" | "-t" => {
                opts.threads = Some(parse_or_usage(
                    next_value(&mut args, "--threads"),
                    "--threads",
                ))
            }
            "--queries" | "-q" => opts.queries_path = Some(next_value(&mut args, "--queries")),
            "--random" => {
                opts.random_queries = Some(parse_or_usage(
                    next_value(&mut args, "--random"),
                    "--random",
                ))
            }
            "--seed" => opts.seed = parse_or_usage(next_value(&mut args, "--seed"), "--seed"),
            "--verify" => opts.verify = true,
            "--workers" | "-w" => {
                opts.workers = Some(parse_or_usage(
                    next_value(&mut args, "--workers"),
                    "--workers",
                ))
            }
            "--trusted" => opts.trusted = true,
            "--explain" => opts.explain = true,
            "--help" | "-h" => help(),
            _ if opts.graph_path.is_none() && !arg.starts_with('-') => opts.graph_path = Some(arg),
            _ => {
                eprintln!("error: unrecognised argument `{arg}`");
                usage()
            }
        }
    }
    if opts.queries_path.is_some() && opts.random_queries.is_some() {
        eprintln!("error: --queries and --random are mutually exclusive");
        usage();
    }
    if opts.index_path.is_some() && (opts.num_landmarks.is_some() || opts.threads.is_some()) {
        eprintln!("error: --landmarks/--threads only apply when building from an edge list");
        usage();
    }
    if opts.trusted && opts.index_path.is_none() {
        eprintln!("error: --trusted only applies when serving from --index");
        usage();
    }
    opts
}

/// Renders one `--explain` trace line. The format is pinned by the CLI
/// test suite: fixed key order, `inf` for disconnected pairs, mechanism
/// tokens from the closed sets in `hcl_index::{AnswerSource, MergeKind}`.
fn explain_line(u: VertexId, v: VertexId, d: Option<u32>, stats: &QueryStats) -> String {
    let dist = match d {
        Some(d) => d.to_string(),
        None => "inf".to_string(),
    };
    format!(
        "explain: ({u}, {v}) -> {dist} source={} merge={} hub_entries={} \
         highway_improvements={} bfs_nodes={} bfs_frontier_peak={} bfs_edges={}",
        stats.source.as_str(),
        stats.merge.as_str(),
        stats.hub_entries_scanned,
        stats.highway_improvements,
        stats.bfs_nodes_expanded,
        stats.bfs_frontier_peak,
        stats.bfs_edges_scanned,
    )
}

/// The collected query workload: pairs with their 1-based source line
/// (0 for generated queries, which cannot be out of range) and the name of
/// where they came from, for diagnostics.
struct Workload {
    source: String,
    pairs: Vec<(usize, VertexId, VertexId)>,
}

fn collect_queries(opts: &QueryOptions, n: usize) -> Result<Workload, String> {
    if let Some(count) = opts.random_queries {
        if n == 0 {
            return Err("cannot generate random queries on an empty graph".into());
        }
        let mut rng = hcl_core::testkit::SplitMix64::new(opts.seed);
        return Ok(Workload {
            source: "--random".into(),
            pairs: (0..count)
                .map(|_| {
                    (
                        0,
                        rng.next_below(n as u64) as VertexId,
                        rng.next_below(n as u64) as VertexId,
                    )
                })
                .collect(),
        });
    }
    let mut pairs = Vec::new();
    if let Some(path) = &opts.queries_path {
        scan_pairs(&read_input(path)?, path, |lineno, u, v| {
            pairs.push((lineno, u, v))
        })?;
        return Ok(Workload {
            source: path.clone(),
            pairs,
        });
    }
    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        eprintln!("reading queries from stdin: one `u v` pair per line, Ctrl-D to finish");
    }
    let mut input = stdin.lock();
    let mut line = String::new();
    let mut lineno = 0;
    while next_line(&mut input, &mut line).map_err(|e| format!("reading stdin: {e}"))? {
        lineno += 1;
        if let Some((u, v)) = parse_pair_line(&line, "stdin", lineno)? {
            pairs.push((lineno, u, v));
        }
    }
    Ok(Workload {
        source: "stdin".into(),
        pairs,
    })
}

fn cmd_query(args: Vec<String>) -> Result<(), String> {
    let opts = parse_query_args(args);
    let store = open_or_build(
        opts.index_path.as_deref(),
        opts.graph_path.as_deref(),
        opts.num_landmarks,
        resolve_build_threads(opts.threads),
        opts.trusted,
    )?;
    let (graph, index) = (store.graph(), store.index());

    let workload = collect_queries(&opts, graph.num_vertices())?;
    let n = graph.num_vertices();
    // Out-of-range ids are diagnosed with their source line and skipped —
    // the same skip-don't-die contract `serve` has always had, so a batch
    // file with one bad id still gets its other answers.
    let mut queries = Vec::with_capacity(workload.pairs.len());
    for &(lineno, u, v) in &workload.pairs {
        if (u as usize) < n && (v as usize) < n {
            queries.push((u, v));
        } else {
            eprintln!(
                "error: {}:{lineno}: query ({u}, {v}) out of range (n = {n}); skipped",
                workload.source
            );
        }
    }

    // One reused context per worker (a single context when sequential):
    // per-call allocation would dominate µs-scale queries.
    let workers = if opts.explain {
        1 // --explain traces sequentially; the summary reports it honestly
    } else {
        resolve_workers(opts.workers)
    };
    let t2 = Instant::now();
    let answers = if opts.explain {
        // Explain mode answers sequentially with the stats probe attached,
        // printing one trace line per query to stderr. Stdout is produced
        // by the same formatter from the same answers, so it stays
        // byte-identical to a run without --explain.
        let mut ctx = QueryContext::new();
        let mut stats = QueryStats::new();
        let mut answers = Vec::with_capacity(queries.len());
        for &(u, v) in &queries {
            let d = index.query_probed(graph, &mut ctx, u, v, &mut stats);
            eprintln!("{}", explain_line(u, v, d, &stats));
            answers.push(d);
        }
        answers
    } else {
        pool::answer_batch(graph, index, &queries, workers)
    };
    let query_time = t2.elapsed();

    let mut text = String::with_capacity(queries.len() * 12);
    for (&(u, v), &d) in queries.iter().zip(&answers) {
        pipeline::push_answer_line(&mut text, u, v, d);
    }
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader went away (e.g. `hcl query … | head`): that ends the
        // output, it doesn't fail the command.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            eprintln!("stdout closed by reader; stopping output early");
        }
        Err(e) => return Err(format!("writing output: {e}")),
    }

    if !queries.is_empty() {
        eprintln!(
            "queries: {} answered in {:.1?} ({:.2} µs/query, {workers} worker(s))",
            queries.len(),
            query_time,
            query_time.as_secs_f64() * 1e6 / queries.len() as f64
        );
    }

    if opts.verify {
        let t3 = Instant::now();
        let mut scratch = bfs::BfsScratch::new();
        for (&(u, v), &d) in queries.iter().zip(&answers) {
            let oracle = bfs::distance_with(graph, u, v, &mut scratch);
            if d != oracle {
                return Err(format!(
                    "VERIFICATION FAILED: query ({u}, {v}) = {d:?}, BFS oracle says {oracle:?}"
                ));
            }
        }
        eprintln!(
            "verify: all {} answers match the BFS oracle ({:.1?})",
            queries.len(),
            t3.elapsed()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl serve
// ---------------------------------------------------------------------------

/// Parses a `--reload-signal` value into a Unix signal number.
fn parse_reload_signal(value: String) -> Option<i32> {
    match value.as_str() {
        "hup" => Some(server::sig::SIGHUP),
        "usr1" => Some(server::sig::SIGUSR1),
        "none" => None,
        other => {
            eprintln!("error: invalid --reload-signal `{other}` (expected hup, usr1, or none)");
            usage()
        }
    }
}

fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let mut index_path: Option<String> = None;
    let mut graph_path: Option<String> = None;
    let mut num_landmarks: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut trusted = false;
    let mut listen: Option<String> = None;
    let mut max_inflight = 1024usize;
    let mut write_timeout_ms = 30_000u64;
    let mut reload_signal = Some(server::sig::SIGHUP);
    let mut reload_retries = 0u32;
    let mut reload_backoff_ms = 100u64;
    let mut scrub_interval_s = 0u64;
    let mut slow_log_us: Option<u64> = None;
    let mut slow_log_file: Option<String> = None;
    let mut compact_after = 0usize;
    let mut quiet = false;
    let mut listen_only_flag_seen: Option<&'static str> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--index" | "-i" => index_path = Some(next_value(&mut args, "--index")),
            "--landmarks" | "-k" => {
                num_landmarks = Some(parse_or_usage(
                    next_value(&mut args, "--landmarks"),
                    "--landmarks",
                ))
            }
            "--threads" | "-t" => {
                threads = Some(parse_or_usage(
                    next_value(&mut args, "--threads"),
                    "--threads",
                ))
            }
            "--workers" | "-w" => {
                workers = Some(parse_or_usage(
                    next_value(&mut args, "--workers"),
                    "--workers",
                ))
            }
            "--trusted" => trusted = true,
            "--listen" | "-l" => listen = Some(next_value(&mut args, "--listen")),
            "--max-inflight" => {
                max_inflight =
                    parse_or_usage(next_value(&mut args, "--max-inflight"), "--max-inflight");
                listen_only_flag_seen = Some("--max-inflight");
            }
            "--write-timeout-ms" => {
                write_timeout_ms = parse_or_usage(
                    next_value(&mut args, "--write-timeout-ms"),
                    "--write-timeout-ms",
                );
                listen_only_flag_seen = Some("--write-timeout-ms");
            }
            "--reload-signal" => {
                reload_signal = parse_reload_signal(next_value(&mut args, "--reload-signal"));
                listen_only_flag_seen = Some("--reload-signal");
            }
            "--reload-retries" => {
                reload_retries = parse_or_usage(
                    next_value(&mut args, "--reload-retries"),
                    "--reload-retries",
                );
                listen_only_flag_seen = Some("--reload-retries");
            }
            "--reload-backoff-ms" => {
                reload_backoff_ms = parse_or_usage(
                    next_value(&mut args, "--reload-backoff-ms"),
                    "--reload-backoff-ms",
                );
                listen_only_flag_seen = Some("--reload-backoff-ms");
            }
            "--scrub-interval-s" => {
                scrub_interval_s = parse_or_usage(
                    next_value(&mut args, "--scrub-interval-s"),
                    "--scrub-interval-s",
                );
                listen_only_flag_seen = Some("--scrub-interval-s");
            }
            "--slow-log-us" => {
                slow_log_us = Some(parse_or_usage(
                    next_value(&mut args, "--slow-log-us"),
                    "--slow-log-us",
                ))
            }
            "--slow-log-file" => slow_log_file = Some(next_value(&mut args, "--slow-log-file")),
            "--compact-after" => {
                compact_after =
                    parse_or_usage(next_value(&mut args, "--compact-after"), "--compact-after")
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => help(),
            _ if graph_path.is_none() && !arg.starts_with('-') => graph_path = Some(arg),
            _ => {
                eprintln!("error: unrecognised argument `{arg}`");
                usage()
            }
        }
    }
    if index_path.is_some() && (num_landmarks.is_some() || threads.is_some()) {
        eprintln!("error: --landmarks/--threads only apply when building from an edge list");
        usage();
    }
    if trusted && index_path.is_none() {
        eprintln!("error: --trusted only applies when serving from --index");
        usage();
    }
    if listen.is_none() {
        if let Some(flag) = listen_only_flag_seen {
            eprintln!("error: {flag} only applies with --listen");
            usage();
        }
    }
    if max_inflight == 0 {
        eprintln!("error: --max-inflight must be at least 1");
        usage();
    }
    if slow_log_file.is_some() && slow_log_us.is_none() {
        eprintln!("error: --slow-log-file only applies with --slow-log-us");
        usage();
    }
    // Threshold from --slow-log-us, sink stderr unless --slow-log-file
    // redirects it.
    let slow_log = match slow_log_us {
        Some(us) => {
            let out: Box<dyn Write + Send> = match &slow_log_file {
                Some(path) => Box::new(
                    std::fs::File::create(path)
                        .map_err(|e| format!("creating slow-log file {path}: {e}"))?,
                ),
                None => Box::new(std::io::stderr()),
            };
            Some(slowlog::SlowLog::new(us, out))
        }
        None => None,
    };
    let store = open_or_build(
        index_path.as_deref(),
        graph_path.as_deref(),
        num_landmarks,
        resolve_build_threads(threads),
        trusted,
    )?;
    let pipeline = pipeline::Pipeline::new(
        store,
        slow_log,
        index_path.as_deref().map(std::path::PathBuf::from),
        compact_after,
        listen.is_some(),
    );

    if let Some(addr) = listen {
        // Socket front end. Handler threads default to every core — it's
        // a server.
        let reload = index_path.map(|path| server::ReloadSpec { path, trusted });
        return server::serve_listen(
            pipeline,
            server::ServerConfig {
                addr,
                workers: resolve_workers(workers.or(Some(0))),
                max_inflight,
                write_timeout: std::time::Duration::from_millis(write_timeout_ms),
                // A reload signal without a reload source would only ever
                // log failures; leave it uninstalled.
                reload_signal: if reload.is_some() {
                    reload_signal
                } else {
                    None
                },
                reload,
                reload_retries,
                reload_backoff: std::time::Duration::from_millis(reload_backoff_ms),
                scrub_interval: (scrub_interval_s > 0)
                    .then(|| std::time::Duration::from_secs(scrub_interval_s)),
                quiet,
            },
        );
    }

    // Stdin: the reader chunks lines for the query workers, which answer
    // on per-chunk generation snapshots, and a reorder buffer keeps stdout
    // in input order at every worker count. `+u v` / `-u v` lines swap in
    // a repaired generation between chunks.
    let workers = resolve_workers(workers);
    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        eprintln!("serving with {workers} worker(s): one `u v` pair per line, Ctrl-D to finish");
    }
    let t0 = Instant::now();
    if pool::serve_pooled(&pipeline, workers, stdin.lock(), std::io::stdout())? {
        eprintln!("stdout closed by reader; shutting down");
    }
    pipeline.print_summary(
        &format!("in {:.1?} with {workers} worker(s)", t0.elapsed()),
        quiet,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl update
// ---------------------------------------------------------------------------

fn cmd_update(args: Vec<String>) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut deltas_path: Option<String> = None;
    let mut compact_after = 0usize;
    let mut force_compact = false;
    let mut trusted = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deltas" | "-d" => deltas_path = Some(next_value(&mut args, "--deltas")),
            "--compact-after" => {
                compact_after =
                    parse_or_usage(next_value(&mut args, "--compact-after"), "--compact-after")
            }
            "--compact" => force_compact = true,
            "--trusted" => trusted = true,
            "--help" | "-h" => help(),
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => {
                eprintln!("error: unrecognised argument `{arg}`");
                usage()
            }
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("error: update needs an index-file path");
        usage()
    });

    // Read the whole delta script up front (strict grammar: every
    // non-blank, non-comment line must be a delta) so a typo on line 40
    // aborts before line 1 mutates anything.
    fn read_deltas(reader: impl BufRead, what: &str) -> Result<Vec<EdgeDelta>, String> {
        let mut deltas = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("reading {what}: {e}"))?;
            if let Some(delta) = update::parse_delta_line(&line, what, lineno + 1)? {
                deltas.push(delta);
            }
        }
        Ok(deltas)
    }
    let deltas = match &deltas_path {
        Some(file) => {
            let f = std::fs::File::open(file).map_err(|e| format!("opening {file}: {e}"))?;
            read_deltas(std::io::BufReader::new(f), file)?
        }
        None => read_deltas(std::io::stdin().lock(), "stdin")?,
    };

    let t0 = Instant::now();
    let store = if trusted {
        IndexStore::open_trusted(&path)
    } else {
        IndexStore::open(&path)
    }
    .map_err(|e| format!("opening {path}: {e}"))?;
    let mut engine = update::UpdateEngine::from_store(
        &store,
        Some(std::path::PathBuf::from(&path)),
        compact_after,
    );
    // The engine shares the validated image; this handle is not needed.
    drop(store);

    let mut applied = 0u64;
    let mut noops = 0u64;
    for delta in deltas {
        if engine.apply(delta)?.applied {
            applied += 1;
        } else {
            noops += 1;
        }
    }
    let published = engine.publish(force_compact)?;
    eprintln!(
        "updated {path}: {applied} delta(s) applied ({noops} no-op), {} full relabel(s); \
         journal: {} pending, {} compaction(s){}; took {:.1?} ({})",
        published.phases.full_relabels,
        engine.pending(),
        engine.compactions(),
        match published.bytes {
            Some(b) => format!(", {b} bytes written"),
            None => String::new(),
        },
        t0.elapsed(),
        published.phases
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl inspect
// ---------------------------------------------------------------------------

/// The `inspect --stats` appendix: the label-size distribution, the hubs
/// that dominate the labels, and the build counters when the container
/// records them (a one-line absence note otherwise).
fn write_deep_stats(out: &mut dyn Write, store: &IndexStore) -> std::io::Result<()> {
    let index = store.index();
    let offsets = index.label_offsets();
    let mut sizes: Vec<u64> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    sizes.sort_unstable();
    // Nearest-rank quantiles over the exact per-vertex sizes — no
    // bucketing, the data is right there.
    let quantile = |q: f64| -> u64 {
        if sizes.is_empty() {
            return 0;
        }
        let rank = ((q * sizes.len() as f64).ceil() as usize).clamp(1, sizes.len());
        sizes[rank - 1]
    };
    writeln!(out, "label histogram:")?;
    writeln!(
        out,
        "  entries/vertex: p50={} p99={} max={}",
        quantile(0.50),
        quantile(0.99),
        sizes.last().copied().unwrap_or(0)
    )?;

    let landmarks = index.landmarks();
    let mut freq = vec![0u64; landmarks.len()];
    for &entry in index.label_entries() {
        let (rank, _) = hcl_index::unpack_label_entry(entry);
        if let Some(slot) = freq.get_mut(rank as usize) {
            *slot += 1;
        }
    }
    let mut by_freq: Vec<(u64, usize)> = freq
        .iter()
        .copied()
        .enumerate()
        .map(|(r, c)| (c, r))
        .collect();
    by_freq.sort_unstable_by_key(|&(count, rank)| (std::cmp::Reverse(count), rank));
    writeln!(out, "top hubs:")?;
    if by_freq.is_empty() {
        writeln!(out, "  (no landmarks)")?;
    }
    for (place, &(count, rank)) in by_freq.iter().take(10).enumerate() {
        writeln!(
            out,
            "  #{:<2} vertex {} (rank {rank}): {count} label entries",
            place + 1,
            landmarks[rank]
        )?;
    }

    match store.build_stats() {
        Some(bs) => {
            writeln!(out, "build stats:")?;
            writeln!(out, "  bfs visits:       {}", bs.bfs_visits)?;
            writeln!(out, "  label insertions: {}", bs.label_insertions)?;
            writeln!(
                out,
                "  covered:          {} ({:.1}% of visits)",
                bs.dominated,
                bs.domination_cut_rate() * 100.0
            )?;
            let mut contrib: Vec<(u64, usize)> = bs
                .landmark_labels
                .iter()
                .copied()
                .enumerate()
                .map(|(r, c)| (c, r))
                .collect();
            contrib.sort_unstable_by_key(|&(count, rank)| (std::cmp::Reverse(count), rank));
            writeln!(out, "  top contributors:")?;
            for &(count, rank) in contrib.iter().take(10) {
                writeln!(
                    out,
                    "    rank {rank} (vertex {}): {count} labels",
                    landmarks.get(rank).copied().unwrap_or_default()
                )?;
            }
        }
        None => writeln!(out, "build stats:   (not recorded)")?,
    }
    Ok(())
}

fn cmd_inspect(args: Vec<String>) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut show_stats = false;
    for arg in args {
        match arg.as_str() {
            "--stats" => show_stats = true,
            "--help" | "-h" => help(),
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => {
                eprintln!("error: unrecognised argument `{arg}`");
                usage()
            }
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("error: inspect needs an index-file path");
        usage()
    });

    let t0 = Instant::now();
    let store = IndexStore::open(&path).map_err(|e| format!("opening {path}: {e}"))?;
    let load_time = t0.elapsed();
    let meta = store.meta();
    let stats = store.index().stats();

    // Explicit writes instead of println!, so `hcl inspect … | head` is a
    // clean early exit (the serve/query contract) rather than a panic.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let report = |out: &mut dyn Write| -> std::io::Result<()> {
        writeln!(out, "file:          {path}")?;
        let tail = store.tail();
        writeln!(
            out,
            "size:          {} bytes ({:.1} KiB): {} B container image + {} B journal tail",
            store.len_bytes(),
            store.len_bytes() as f64 / 1024.0,
            meta.file_len,
            store.len_bytes() - meta.file_len
        )?;
        writeln!(
            out,
            "format:        HCLSTOR v{} (checksum {:#018x}, verified)",
            meta.version, meta.checksum
        )?;
        writeln!(
            out,
            "backing:       {} (validated in {:.1?})",
            store.backing_kind(),
            load_time
        )?;
        writeln!(out, "open:          {}", store.open_phases())?;
        writeln!(out, "vertices:      {}", meta.num_vertices)?;
        writeln!(out, "edges:         {}", meta.num_edges)?;
        writeln!(out, "landmarks:     {}", meta.num_landmarks)?;
        writeln!(
            out,
            "label entries: {} (avg {:.2}/vertex, max {})",
            meta.label_entries, stats.avg_label_size, stats.max_label_size
        )?;
        if meta.build.batch_size == 0 {
            writeln!(out, "built with:    (unrecorded)")?;
        } else {
            writeln!(out, "built with:    sweep width {}", meta.build.batch_size)?;
        }
        match store.journal() {
            Some(j) => writeln!(
                out,
                "journal:       {} pending delta(s), {} B, {} compaction(s)",
                j.len(),
                store.journal_bytes(),
                j.compactions
            )?,
            None => writeln!(out, "journal:       (none)")?,
        }
        writeln!(
            out,
            "journal tail:  {} frame(s), {} B{}",
            tail.frames,
            tail.frame_bytes,
            match tail.torn_bytes {
                0 => String::new(),
                torn => format!(
                    "; {torn} B torn remainder (an unacknowledged append; the next one removes it)"
                ),
            }
        )?;
        writeln!(out, "sections:")?;
        for s in store.sections() {
            writeln!(
                out,
                "  {:<16} {:>12} B @ {:<10} ({} B/elem, {} elems)",
                s.name,
                s.len_bytes,
                s.offset,
                s.elem_size,
                s.len_bytes / s.elem_size as u64
            )?;
        }
        if show_stats {
            write_deep_stats(out, &store)?;
        }
        out.flush()
    };
    match report(&mut out) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing output: {e}")),
        Ok(()) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "build" => cmd_build(args.split_off(1)),
        "query" => cmd_query(args.split_off(1)),
        "serve" => cmd_serve(args.split_off(1)),
        "update" => cmd_update(args.split_off(1)),
        "inspect" => cmd_inspect(args.split_off(1)),
        "--help" | "-h" => help(),
        other => {
            eprintln!("error: unknown command `{other}`");
            usage()
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit::SplitMix64;

    /// The line-by-line loader `scan_pairs` replaced — a `String` per
    /// line through `BufRead::lines` — kept as the reference the scanner
    /// must agree with on every input, pairs, line numbers and errors.
    fn parse_pairs_reference(
        reader: impl BufRead,
        what: &str,
    ) -> Result<Vec<(usize, VertexId, VertexId)>, String> {
        let mut pairs = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("reading {what}: {e}"))?;
            if let Some((u, v)) = parse_pair_line(&line, what, lineno + 1)? {
                pairs.push((lineno + 1, u, v));
            }
        }
        Ok(pairs)
    }

    fn scan(text: &[u8], what: &str) -> Result<Vec<(usize, VertexId, VertexId)>, String> {
        let mut pairs = Vec::new();
        scan_pairs(text, what, |lineno, u, v| pairs.push((lineno, u, v)))?;
        Ok(pairs)
    }

    fn parse(text: &str) -> Result<Vec<(VertexId, VertexId)>, String> {
        Ok(scan(text.as_bytes(), "test.edges")?
            .into_iter()
            .map(|(_, u, v)| (u, v))
            .collect())
    }

    /// Checks the scanner against the reference on `text` — the same
    /// numbered pairs or the same `Err(String)` — and then [`load_graph`]
    /// on a file holding it: the same `Ok(Graph)` or the same error. Texts
    /// naming ids near `u32::MAX` skip the load (a graph that size does
    /// not fit in a test; the pairs already match). Returns whether the
    /// text loads.
    fn assert_same_as_reference(tag: &str, text: &[u8]) -> bool {
        let path =
            std::env::temp_dir().join(format!("hcl-scan-{}-{tag}.edges", std::process::id()));
        let what = path.to_str().expect("temp path is UTF-8");
        let reference = parse_pairs_reference(std::io::Cursor::new(text), what);
        assert_eq!(scan(text, what), reference, "pairs of {tag}: {text:?}");
        if let Ok(pairs) = &reference {
            if pairs.iter().any(|&(_, u, v)| u.max(v) >= 1 << 16) {
                return true;
            }
        }
        std::fs::write(&path, text).expect("write temp edge list");
        let loaded = load_graph(what).map(|(graph, _)| graph);
        let expected = reference.map(|pairs| {
            Graph::from_edges(&pairs.iter().map(|&(_, u, v)| (u, v)).collect::<Vec<_>>())
        });
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, expected, "graph of {tag}: {text:?}");
        loaded.is_ok()
    }

    #[test]
    fn scanner_matches_reference_on_named_cases() {
        let cases: &[(&str, &[u8])] = &[
            ("plain", b"0 1\n1 2\n2 3\n"),
            ("tabs", b"0\t1\n1\t\t2\n"),
            ("crlf", b"0 1\r\n1 2\r\n"),
            ("lone-cr", b"0 1\r2 3\n"),
            ("padding", b"  0 1\n1 2  \n1   2\n"),
            ("plus", b"+7 1\n"),
            ("zero-padded", b"007 0010\n"),
            ("eleven-digits", b"00000000001 2\n"),
            ("ten-digits", b"0000000001 0000000002\n"),
            ("u32-max", b"4294967295 0\n"),
            ("u32-max-plus-one", b"4294967296 0\n"),
            ("eleven-digit-overflow", b"1 99999999999\n"),
            ("negative", b"-1 2\n"),
            ("one-token", b"0 1\n3\n"),
            ("three-tokens", b"0 1\n1 2 9\n"),
            ("hash-comment", b"# header\n0 1\n"),
            ("percent-comment", b"% metis\n0 1\n"),
            ("indented-comment", b"   # indented\n0 1\n"),
            ("comment-after-pair", b"0 1 # trailing\n"),
            ("blank-lines", b"\n\n0 1\n\n   \n1 2\n\n"),
            ("no-final-newline", b"0 1\n1 2"),
            ("no-final-newline-cr", b"0 1\n1 2\r"),
            ("empty", b""),
            ("only-newline", b"\n"),
            ("nbsp", "0\u{a0}1\n".as_bytes()),
            ("nbsp-padding", "\u{a0}0 1\u{a0}\n".as_bytes()),
            ("ideographic-space", "0\u{3000}1\n".as_bytes()),
            ("invalid-utf8-data", b"0 1\n2 \xff\n"),
            ("invalid-utf8-comment", b"0 1\n# \xfe\xff\n2 3\n"),
            ("invalid-utf8-after-error", b"x 1\n\xff\n"),
            ("error-after-invalid-utf8", b"\xff\nx 1\n"),
            ("nul", b"0 1\n\x002 3\n"),
            ("nul-token", b"0 \x00\n"),
            ("trailing-space-before-newline", b"0 1 \n"),
            ("double-space", b"0  1\n"),
            ("letters", b"a b\n"),
            ("digits-then-letter", b"12x 3\n"),
            ("space-at-end-of-input", b"0 "),
            ("separator-only", b" \n"),
        ];
        for (tag, text) in cases {
            assert_same_as_reference(tag, text);
        }
    }

    #[test]
    fn scanner_matches_reference_on_seeded_corpus() {
        // Lines drawn from fragments that exercise both the fast shape
        // and every way out of it.
        const IDS: &[&str] = &[
            "0",
            "1",
            "7",
            "42",
            "007",
            "+7",
            "-1",
            "4294967295",
            "4294967296",
            "00000000001",
            "0000000000",
            "99999999999",
            "x",
            "1x",
            "",
        ];
        const SEPS: &[&str] = &[" ", " ", " ", "\t", "  ", "\u{a0}", "\u{3000}", ""];
        const ENDS: &[&[u8]] = &[b"\n", b"\n", b"\n", b"\r\n", b" \n", b"\t\n", b"\n\n"];
        const EXTRAS: &[&[u8]] = &[
            b"# comment\n",
            b"% comment\n",
            b"  # x\n",
            b"\n",
            b"\xff\n",
            b"\x00\n",
            b"5\n",
            b"1 2 3\n",
        ];
        let mut rng = SplitMix64::new(0x5CA7);
        let mut loads = 0;
        for case in 0..400 {
            let mut text = Vec::new();
            for _ in 0..rng.next_below(12) {
                if rng.next_below(8) == 0 {
                    text.extend_from_slice(EXTRAS[rng.next_below(EXTRAS.len() as u64) as usize]);
                    continue;
                }
                // Mostly well-formed lines, so errors come late in the text.
                let well_formed = rng.next_below(4) != 0;
                let pick = |rng: &mut SplitMix64, xs: &[&str], first: usize| -> String {
                    let upto = if well_formed { first } else { xs.len() };
                    xs[rng.next_below(upto as u64) as usize].to_string()
                };
                let u = pick(&mut rng, IDS, 5);
                let sep = pick(&mut rng, SEPS, 3);
                let v = pick(&mut rng, IDS, 5);
                text.extend_from_slice(format!("{u}{sep}{v}").as_bytes());
                text.extend_from_slice(ENDS[rng.next_below(ENDS.len() as u64) as usize]);
            }
            if rng.next_below(3) == 0 {
                // No final newline.
                while text.last() == Some(&b'\n') {
                    text.pop();
                }
            }
            loads += usize::from(assert_same_as_reference(&format!("corpus{case}"), &text));
        }
        // Both outcomes are well represented.
        assert!((50..=350).contains(&loads), "{loads} of 400 texts load");
    }

    #[test]
    fn parses_plain_pairs_and_whitespace() {
        assert_eq!(
            parse("0 1\n2\t3\n  4   5  \n").unwrap(),
            vec![(0, 1), (2, 3), (4, 5)]
        );
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# header comment\n\n0 1\n   \n% metis-style comment\n1 2\n  # indented\n";
        assert_eq!(parse(text).unwrap(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn errors_carry_file_and_line_and_token() {
        let err = parse("0 1\nx 2\n").unwrap_err();
        assert!(err.contains("test.edges:2"), "missing file:line in {err:?}");
        assert!(err.contains("`x`"), "missing offending token in {err:?}");

        let err = parse("0 1\n\n3\n").unwrap_err();
        assert!(err.contains("test.edges:3"), "missing file:line in {err:?}");
        assert!(err.contains("expected two"), "wrong message: {err:?}");

        let err = parse("1 2 9\n").unwrap_err();
        assert!(err.contains("test.edges:1"), "missing file:line in {err:?}");
        assert!(err.contains("`9`"), "missing offending token in {err:?}");
        assert!(
            err.contains("weighted"),
            "should hint at weighted lists: {err:?}"
        );

        // Negative ids name the token, not a bare parse failure.
        let err = parse("-1 2\n").unwrap_err();
        assert!(err.contains("`-1`"), "missing offending token in {err:?}");
    }

    #[test]
    fn comment_only_input_is_empty_not_error() {
        assert_eq!(parse("# nothing here\n% or here\n").unwrap(), vec![]);
    }
}
