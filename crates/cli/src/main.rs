//! `hcl` — build, persist, inspect, and serve highway-cover distance
//! indexes.
//!
//! ```text
//! hcl build <graph.edges> [--out FILE.hcl] [--landmarks K] [--threads T]
//!           [--progress]
//! hcl query (--index FILE.hcl | <graph.edges> [--landmarks K])
//!           [--queries FILE | --random N] [--seed S]
//!           [--workers W] [--verify] [--explain]
//! hcl serve (--index FILE.hcl | <graph.edges> [--landmarks K])
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
//! exists for. Every open validates the whole container, checksum
//! included. `--workers` fans the workload out over a thread pool sharing
//! the single mapped index (output is the same bytes at every worker
//! count — see the `pool` module). Every serve
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

use hcl_core::{bfs, Graph, GraphBuilder, VertexId};
use hcl_index::{BuildOptions, HighwayCoverIndex, QueryStats, MAX_LANDMARKS};
use hcl_store::{IndexStore, UpdateEngine};
use std::io::{BufRead, ErrorKind, IsTerminal, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every block of 2 MiB or more — the build's arrays, a fold's splice, a
/// compaction, the store's aligned buffer — lives on huge pages and goes
/// back to the OS when freed (`hcl_store::LargePages`).
#[global_allocator]
static ALLOCATOR: hcl_store::LargePages = hcl_store::LargePages;

const USAGE: &str = "usage: hcl <command> [args]\n\
     \n\
     commands:\n\
       build <graph.edges> [--out FILE.hcl] [--landmarks K] [--threads T]\n\
             [--progress]\n\
           Build the highway-cover index once and persist it (default\n\
           output: <graph.edges>.hcl). The K highest-degree vertices are\n\
           the landmarks, at most 256: a label entry is one 4-byte word,\n\
           the landmark's rank in 8 bits over its distance in 24. A\n\
           graph whose labels would hold a distance above 2^24 - 1 (one\n\
           of more than 2^24 vertices) fails the build naming the limit,\n\
           and an update that would write one is refused. The landmarks\n\
           are swept 64 at a time; --threads shards those groups\n\
           over T worker threads (default: HCL_BUILD_THREADS or all\n\
           available cores; at most one worker per 64 landmarks ever\n\
           starts), and the output is byte-identical at every thread\n\
           count; the index: line names the workers that ran.\n\
           --progress streams per-phase lines (selection, each sweep group\n\
           with its levels, how many of them were wide enough to be put\n\
           in vertex order from a bitmap (dense), how many were expanded\n\
           by pulling from the unreached vertices instead of pushing from\n\
           the frontier (pulled), activations, entries and covered\n\
           arrivals, the label fill) to stderr, and ends with the peak\n\
           resident memory (memory:). Build counters (BFS visits, covered\n\
           arrivals, per-landmark label contributions) are always\n\
           recorded in the container and shown by inspect --stats.\n\
       query (--index FILE.hcl | <graph.edges> [--landmarks K]\n\
             [--threads T]) [--queries FILE | --random N]\n\
             [--seed S] [--workers W] [--verify] [--explain]\n\
           Answer `u v` distance queries. With --index the saved container\n\
           is validated (checksum included), memory-mapped and served\n\
           zero-copy — no rebuild; --trusted is accepted and ignored.\n\
           Queries come from --queries, --random, or stdin; answers are\n\
           `u v d` lines (`inf` when disconnected), in input order\n\
           regardless of --workers. Out-of-range ids are reported with\n\
           their source line and skipped. --workers W answers the\n\
           workload on W threads sharing one index (0 = all cores).\n\
           --verify re-checks against a BFS oracle. --explain\n\
           prints one per-query trace line to stderr (answer source,\n\
           merge kind, hub entries scanned, residual-BFS work); stdout\n\
           stays byte-identical to a run without it.\n\
       serve (--index FILE.hcl | <graph.edges> [--landmarks K]\n\
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
           Apply a script of `+u v` / `-u v` edge deltas to a saved\n\
           container offline, repairing the labels incrementally (no\n\
           rebuild) and journalling the deltas for crash-safe replay at\n\
           open. Deltas come from --deltas FILE or stdin; every\n\
           non-comment line must be a delta (strict, unlike serve).\n\
           --compact folds the journal into the base sections now;\n\
           --compact-after N folds automatically once N deltas are\n\
           pending.\n\
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
/// at the input. `lineno` counts the lines before `bytes` on entry and
/// those through `bytes` on return, so a file scanned in pieces cut at
/// line ends numbers its lines as one scan would.
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
    lineno: &mut usize,
    pair: &mut impl FnMut(usize, VertexId, VertexId),
) -> Result<(), String> {
    let mut rest = bytes;
    while !rest.is_empty() {
        *lineno += 1;
        if let Some((u, v, len)) = fast_pair(rest) {
            pair(*lineno, u, v);
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
        if let Some((u, v)) = parse_pair_line(line, what, *lineno)? {
            pair(*lineno, u, v);
        }
        rest = next;
    }
    Ok(())
}

/// Bytes an edge-list or query file is read in at a time.
const READ_CHUNK: usize = 1 << 20;

/// Where a [`scan_reader`] went: `read` calls and scanning.
struct ScanTimes {
    read: Duration,
    parse: Duration,
}

/// [`scan_pairs`] over everything `input` yields, read through one reused
/// buffer of `chunk` bytes: each fill is scanned up to its last line end,
/// and the line cut at the buffer's edge moves to its front to be
/// finished by the next read (a line longer than the buffer doubles it).
/// A failed read fails as `reading <what>: <error>`.
fn scan_reader(
    input: &mut impl Read,
    what: &str,
    chunk: usize,
    mut pair: impl FnMut(usize, VertexId, VertexId),
) -> Result<ScanTimes, String> {
    let mut buf = vec![0u8; chunk.max(1)];
    let (mut filled, mut lineno) = (0, 0);
    let mut times = ScanTimes {
        read: Duration::ZERO,
        parse: Duration::ZERO,
    };
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let t0 = Instant::now();
        let got = match input.read(&mut buf[filled..]) {
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("reading {what}: {e}")),
        };
        let t1 = Instant::now();
        times.read += t1 - t0;
        if got == 0 {
            scan_pairs(&buf[..filled], what, &mut lineno, &mut pair)?;
            times.parse += t1.elapsed();
            return Ok(times);
        }
        filled += got;
        if let Some(end) = buf[..filled].iter().rposition(|&b| b == b'\n') {
            scan_pairs(&buf[..=end], what, &mut lineno, &mut pair)?;
            buf.copy_within(end + 1..filled, 0);
            filled -= end + 1;
        }
        times.parse += t1.elapsed();
    }
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

/// Opens an input file; a failed open keeps the `opening` text a
/// line-by-line reader would give.
fn open_input(path: &str) -> Result<std::fs::File, String> {
    std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))
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

/// Where an edge-list load went: `read` calls on the file, scanning it
/// into the builder, and building the CSR.
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
    let mut b = GraphBuilder::new();
    let scan = scan_reader(&mut open_input(path)?, path, READ_CHUNK, |_, u, v| {
        b.add_edge(u, v);
    })?;
    let t0 = Instant::now();
    let graph = b.build();
    let phases = LoadPhases {
        read: scan.read,
        parse: scan.parse,
        csr: t0.elapsed(),
    };
    Ok((graph, phases))
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    usage()
}

/// What follows a flag on the command line.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// Any one argument: a path or an address.
    Text,
    /// A number the check accepts (see [`parses`]).
    Number(fn(&str) -> bool),
    /// A count no larger than the bound.
    AtMost(usize),
    /// A [`reload_signal`] name.
    Signal,
}

fn parses<T: std::str::FromStr>(value: &str) -> bool {
    value.parse::<T>().is_ok()
}

const COUNT: Takes = Takes::Number(parses::<usize>);
const U64: Takes = Takes::Number(parses::<u64>);

/// A flag's names — the long one first, which every diagnostic uses —
/// and what follows it.
type Flag = (&'static [&'static str], Takes);

const LANDMARKS: Flag = (&["--landmarks", "-k"], Takes::AtMost(MAX_LANDMARKS));
const THREADS: Flag = (&["--threads", "-t"], COUNT);
const COMPACT_AFTER: Flag = (&["--compact-after"], COUNT);
const SLOW_LOG_FILE: Flag = (&["--slow-log-file"], Takes::Text);

const BUILD_FLAGS: &[Flag] = &[
    (&["--out", "-o"], Takes::Text),
    (&["--progress"], Takes::Nothing),
    LANDMARKS,
    THREADS,
];
/// The flags `query` and `serve` share: where the index comes from (see
/// [`Source`]) and how many workers answer.
const SOURCE_FLAGS: &[Flag] = &[
    (&["--index", "-i"], Takes::Text),
    LANDMARKS,
    THREADS,
    // Accepted and ignored: every open validates. The harness's stdin
    // batch still passes it; ROADMAP 1(c) stops that and deletes it.
    (&["--trusted"], Takes::Nothing),
    (&["--workers", "-w"], COUNT),
];
const QUERY_FLAGS: &[Flag] = &[
    (&["--queries", "-q"], Takes::Text),
    (&["--random"], COUNT),
    (&["--seed"], U64),
    (&["--verify"], Takes::Nothing),
    (&["--explain"], Takes::Nothing),
];
const SERVE_FLAGS: &[Flag] = &[
    (&["--listen", "-l"], Takes::Text),
    (&["--slow-log-us"], U64),
    SLOW_LOG_FILE,
    COMPACT_AFTER,
    (&["--quiet"], Takes::Nothing),
];
/// The `serve` flags that only mean something with `--listen`.
const LISTEN_FLAGS: &[Flag] = &[
    (&["--max-inflight"], COUNT),
    (&["--write-timeout-ms"], U64),
    (&["--reload-signal"], Takes::Signal),
    (&["--reload-retries"], Takes::Number(parses::<u32>)),
    (&["--reload-backoff-ms"], U64),
    (&["--scrub-interval-s"], U64),
];
const UPDATE_FLAGS: &[Flag] = &[
    (&["--deltas", "-d"], Takes::Text),
    COMPACT_AFTER,
    (&["--compact"], Takes::Nothing),
];
const INSPECT_FLAGS: &[Flag] = &[(&["--stats"], Takes::Nothing)];

/// A subcommand's arguments: its one positional argument and every flag
/// given, in order, by long name (a repeated flag's last value counts).
struct Args {
    path: Option<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The argument loop every subcommand runs over its flag lists. The
    /// first bad argument ends it with a usage error: a flag missing its
    /// value, a value its flag refuses, or an argument that is neither a
    /// flag of `lists` nor the first positional. `-h` prints the usage.
    fn parse(args: Vec<String>, lists: &[&[Flag]]) -> Self {
        let mut parsed = Args {
            path: None,
            flags: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = lists
                .iter()
                .copied()
                .flatten()
                .find(|(names, _)| names.contains(&arg.as_str()));
            let Some(&(names, takes)) = flag else {
                match arg.as_str() {
                    "--help" | "-h" => help(),
                    _ if parsed.path.is_none() && !arg.starts_with('-') => parsed.path = Some(arg),
                    _ => usage_error(format_args!("unrecognised argument `{arg}`")),
                }
                continue;
            };
            let long = names[0];
            let value = match takes {
                Takes::Nothing => None,
                _ => {
                    let Some(v) = args.next() else {
                        usage_error(format_args!("{long} expects a value"))
                    };
                    match takes {
                        Takes::Number(ok) if !ok(&v) => {
                            usage_error(format_args!("invalid value for {long}: `{v}`"))
                        }
                        Takes::AtMost(max) => match v.parse::<usize>() {
                            Err(_) => usage_error(format_args!("invalid value for {long}: `{v}`")),
                            Ok(n) if n > max => usage_error(format_args!(
                                "invalid value for {long}: `{v}` (at most {max})"
                            )),
                            Ok(_) => Some(v),
                        },
                        Takes::Signal if reload_signal(&v).is_none() => usage_error(format_args!(
                            "invalid {long} `{v}` (expected hup, usr1, or none)"
                        )),
                        _ => Some(v),
                    }
                }
            };
            parsed.flags.push((long, value));
        }
        parsed
    }

    fn has(&self, long: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == long)
    }

    fn value(&self, long: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(flag, _)| *flag == long)?;
        value.as_deref()
    }

    /// A [`Takes::Number`] flag's value; the loop checked it parses as `T`.
    fn number<T: std::str::FromStr>(&self, long: &str) -> Option<T> {
        self.value(long)?.parse().ok()
    }

    /// A usage error, naming the last of `flags` given, unless `needed`
    /// was given too.
    fn require(&self, flags: &[Flag], needed: &str) {
        if self.has(needed) {
            return;
        }
        let given = self
            .flags
            .iter()
            .rev()
            .find(|(flag, _)| flags.iter().any(|(names, _)| names.first() == Some(flag)));
        if let Some((flag, _)) = given {
            usage_error(format_args!("{flag} only applies with {needed}"));
        }
    }
}

/// A `--reload-signal` value as the Unix signal it names (`Some(None)`
/// for `none`); `None` for anything else.
fn reload_signal(value: &str) -> Option<Option<i32>> {
    match value {
        "hup" => Some(Some(server::sig::SIGHUP)),
        "usr1" => Some(Some(server::sig::SIGUSR1)),
        "none" => Some(None),
        _ => None,
    }
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

// ---------------------------------------------------------------------------
// Opening and building an index
// ---------------------------------------------------------------------------

/// What an edge list builds: the graph, its labelling and the build
/// counters, laid out by [`Built::image`] as the container `hcl build`
/// publishes and `query` / `serve` on an edge list serve.
struct Built {
    graph: Graph,
    index: HighwayCoverIndex,
    info: hcl_store::BuildInfo,
    stats: hcl_store::StoredBuildStats,
    /// The stderr lines reporting the load and the build.
    report: String,
}

impl Built {
    /// The container over the built arrays, its CRC included.
    fn image(&self) -> Result<hcl_store::ImageParts<'_>, String> {
        let (graph, index) = (self.graph.as_view(), self.index.as_view());
        hcl_store::image_parts(graph, index, self.info, Some(&self.stats), None)
            .map_err(|e| format!("serialising built index: {e}"))
    }
}

/// Loads the edge list at `path` and labels it, keeping the build
/// counters. `progress` streams the builder's per-phase lines to stderr
/// as they happen and adds its totals to the report.
fn build_image(
    path: &str,
    landmarks: Option<usize>,
    threads: usize,
    progress: bool,
) -> Result<Built, String> {
    let t0 = Instant::now();
    let (graph, load_phases) = load_graph(path)?;
    let load_time = t0.elapsed();
    let options = BuildOptions {
        num_landmarks: resolve_landmarks(landmarks, graph.num_vertices()),
        threads,
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
    // At most one worker starts per sweep group; without landmarks the
    // calling thread does the whole build.
    let workers = threads.min(build_stats.batch_us.len()).max(1);
    let stats = index.stats();
    // The thread count is left unrecorded (0) so that the same edge list
    // builds the same file on every host and at every --threads value.
    let info = hcl_store::BuildInfo {
        batch_size: options.resolved_batch_size() as u32,
        ..hcl_store::BuildInfo::default()
    };

    let mut report = String::new();
    if progress {
        report += &format!(
            "phases: selection {}µs, sweeps {}µs over {} group(s), fill {}µs\n\
             labelling: {} BFS visits, {} label entries, {} covered ({:.1}%)\n",
            build_stats.selection_us,
            build_stats.batch_us.iter().sum::<u64>(),
            build_stats.batch_us.len(),
            build_stats.closure_us,
            build_stats.bfs_visits,
            build_stats.label_insertions,
            build_stats.dominated,
            build_stats.domination_cut_rate() * 100.0
        );
    }
    report += &format!(
        "graph: {} vertices, {} edges (loaded in {load_time:.1?} ({load_phases}))\n\
         index: {} landmarks, {} label entries (avg {:.2}/vertex, max {}), built in \
         {build_time:.1?} with {workers} thread(s)\n",
        graph.num_vertices(),
        graph.num_edges(),
        stats.num_landmarks,
        stats.total_label_entries,
        stats.avg_label_size,
        stats.max_label_size,
    );
    Ok(Built {
        graph,
        index,
        info,
        // The container always carries the build counters (they are
        // deterministic — independent of thread count — so they keep that
        // identity). Wall times are not persisted: they would break it.
        stats: hcl_store::StoredBuildStats::from_build(&build_stats),
        report,
    })
}

/// Where `query` and `serve` get their index: a container (`--index`) or
/// an edge list to build one from.
struct Source {
    index: Option<String>,
    graph: Option<String>,
    /// `Some` only when `--landmarks` was passed explicitly, so serving
    /// from a stored index can reject the flag instead of ignoring it.
    landmarks: Option<usize>,
    /// Same deal for `--threads` (build-time only).
    threads: Option<usize>,
}

impl Source {
    /// Reads [`SOURCE_FLAGS`] and the positional path, with a usage error
    /// for a build flag on a container.
    fn from_args(args: &Args) -> Self {
        let source = Source {
            index: args.value("--index").map(String::from),
            graph: args.path.clone(),
            landmarks: args.number("--landmarks"),
            threads: args.number("--threads"),
        };
        if source.index.is_some() && (source.landmarks.is_some() || source.threads.is_some()) {
            usage_error("--landmarks/--threads only apply when building from an edge list");
        }
        source
    }

    /// Opens the index to serve and reports the load on stderr: mmap'd
    /// from the container, or the container [`build_image`] makes of the
    /// edge list, as an in-memory image.
    fn open(&self) -> Result<IndexStore, String> {
        match (&self.index, &self.graph) {
            (Some(path), None) => {
                let t0 = Instant::now();
                let store = IndexStore::open(path).map_err(|e| format!("opening {path}: {e}"))?;
                let load_time = t0.elapsed();
                let meta = store.meta();
                eprintln!(
                    "index file: {} vertices, {} edges, {} landmarks, {} label entries \
                     ({:.1} KiB file, {} backing, loaded+validated in {:.1?} ({}), no rebuild)",
                    meta.num_vertices,
                    meta.num_edges,
                    meta.num_landmarks,
                    meta.label_entries,
                    store.len_bytes() as f64 / 1024.0,
                    store.backing_kind(),
                    load_time,
                    store.open_phases()
                );
                Ok(store)
            }
            (None, Some(path)) => {
                let built = build_image(
                    path,
                    self.landmarks,
                    resolve_build_threads(self.threads),
                    false,
                )?;
                eprint!("{}", built.report);
                // Gathered straight from the built arrays into the store's
                // aligned buffer: the image is never joined.
                IndexStore::from_slices(&built.image()?.slices())
                    .map_err(|e| format!("re-opening built index image: {e}"))
            }
            (Some(_), Some(g)) => Err(format!(
                "pass either --index or an edge-list path, not both (got `{g}` too)"
            )),
            (None, None) => Err("no input: pass --index FILE.hcl or an edge-list path".into()),
        }
    }
}

// ---------------------------------------------------------------------------
// hcl build
// ---------------------------------------------------------------------------

fn cmd_build(args: Vec<String>) -> Result<(), String> {
    let args = Args::parse(args, &[BUILD_FLAGS]);
    let graph_path = args
        .path
        .clone()
        .unwrap_or_else(|| usage_error("build needs an edge-list path"));
    let out_path = match args.value("--out") {
        Some(out) => out.to_string(),
        None => format!("{graph_path}.hcl"),
    };
    let built = build_image(
        &graph_path,
        args.number("--landmarks"),
        resolve_build_threads(args.number("--threads")),
        args.has("--progress"),
    )?;
    // Serialising is the layout and the CRC; the sections are written
    // straight from the built arrays.
    let t0 = Instant::now();
    let image = built.image()?;
    let serialise = t0.elapsed();
    let t1 = Instant::now();
    // `SystemIo` proceeds at every step, so a success is always
    // `Committed`: the container is in place and durable.
    hcl_store::durable::publish_slices_with(
        std::path::Path::new(&out_path),
        &image.slices(),
        &hcl_store::durable::SystemIo,
    )
    .map_err(|e| format!("writing {out_path}: {e}"))?;
    let publish = t1.elapsed();
    eprint!("{}", built.report);
    let len = image.len_bytes();
    eprintln!(
        "wrote {out_path}: {len} bytes ({:.1} KiB) in {:.1?} (serialise {serialise:.1?}, publish {publish:.1?})",
        len as f64 / 1024.0,
        serialise + publish,
    );
    let peak = args
        .has("--progress")
        .then(|| metrics::proc_status_bytes(["VmHWM"]))
        .flatten();
    if let Some([peak]) = peak {
        eprintln!(
            "memory: peak resident {peak} bytes ({:.1} MiB)",
            peak as f64 / (1 << 20) as f64
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl query
// ---------------------------------------------------------------------------

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

/// The workload `--random N` (seeded by `--seed`), `--queries FILE` or
/// stdin gives, in that order of precedence.
fn collect_queries(args: &Args, n: usize) -> Result<Workload, String> {
    if let Some(count) = args.number::<usize>("--random") {
        if n == 0 {
            return Err("cannot generate random queries on an empty graph".into());
        }
        let mut rng = hcl_core::testkit::SplitMix64::new(args.number("--seed").unwrap_or(0xC0FFEE));
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
    let (mut input, source): (Box<dyn Read>, &str) = match args.value("--queries") {
        Some(path) => (Box::new(open_input(path)?), path),
        None => {
            let stdin = std::io::stdin();
            if stdin.is_terminal() {
                eprintln!("reading queries from stdin: one `u v` pair per line, Ctrl-D to finish");
            }
            (Box::new(stdin.lock()), "stdin")
        }
    };
    let mut pairs = Vec::new();
    scan_reader(&mut input, source, READ_CHUNK, |lineno, u, v| {
        pairs.push((lineno, u, v))
    })?;
    Ok(Workload {
        source: source.to_string(),
        pairs,
    })
}

fn cmd_query(args: Vec<String>) -> Result<(), String> {
    let args = Args::parse(args, &[SOURCE_FLAGS, QUERY_FLAGS]);
    if args.has("--queries") && args.has("--random") {
        usage_error("--queries and --random are mutually exclusive");
    }
    let store = Source::from_args(&args).open()?;
    let verify = args.has("--verify");
    let n = store.graph().num_vertices();
    let workload = collect_queries(&args, n)?;
    // --explain needs each answer's stats; nothing else here does.
    let pipeline = pipeline::Pipeline::new(store, None, None, 0, args.has("--explain"));

    let workers = resolve_workers(args.number("--workers"));
    let mut queries = 0usize;
    let mut answered = Vec::new();
    let t2 = Instant::now();
    // Out-of-range ids are diagnosed with their source line and skipped —
    // the same skip-don't-die contract `serve` has, so a batch file with
    // one bad id still gets its other answers.
    let closed = pool::run(
        &pipeline,
        workers,
        std::io::stdout(),
        |answer, _, _| {
            let (u, v, d) = (answer.request.u, answer.request.v, answer.dist);
            if let Some(stats) = &answer.stats {
                eprintln!("{}", explain_line(u, v, d, stats));
            }
            if verify {
                answered.push((u, v, d));
            }
        },
        |feed| {
            for &(lineno, u, v) in &workload.pairs {
                if feed.stopped() {
                    break;
                }
                // The whole workload arrived before answering started.
                if let Some(request) = pipeline.check_range(u, v, t2, &workload.source, lineno, n) {
                    queries += 1;
                    feed.push(request);
                }
            }
            Ok(())
        },
    )?;
    let query_time = t2.elapsed();
    if closed {
        // The reader went away (e.g. `hcl query … | head`): that ends the
        // output, it doesn't fail the command.
        eprintln!("stdout closed by reader; stopping output early");
    }

    if queries > 0 {
        eprintln!(
            "queries: {queries} answered in {:.1?} ({:.2} µs/query, {workers} worker(s))",
            query_time,
            query_time.as_secs_f64() * 1e6 / queries as f64
        );
    }

    if verify {
        let t3 = Instant::now();
        let generation = pipeline.handle.current();
        let graph = generation.store.graph();
        let mut scratch = bfs::BfsScratch::new();
        for &(u, v, d) in &answered {
            let oracle = bfs::distance_with(graph, u, v, &mut scratch);
            if d != oracle {
                return Err(format!(
                    "VERIFICATION FAILED: query ({u}, {v}) = {d:?}, BFS oracle says {oracle:?}"
                ));
            }
        }
        eprintln!(
            "verify: all {} answers match the BFS oracle ({:.1?})",
            answered.len(),
            t3.elapsed()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// hcl serve
// ---------------------------------------------------------------------------

fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let args = Args::parse(args, &[SOURCE_FLAGS, SERVE_FLAGS, LISTEN_FLAGS]);
    let source = Source::from_args(&args);
    args.require(LISTEN_FLAGS, "--listen");
    let max_inflight = args.number::<usize>("--max-inflight").unwrap_or(1024);
    if max_inflight == 0 {
        usage_error("--max-inflight must be at least 1");
    }
    args.require(&[SLOW_LOG_FILE], "--slow-log-us");
    // Threshold from --slow-log-us, sink stderr unless --slow-log-file
    // redirects it.
    let slow_log = match args.number("--slow-log-us") {
        Some(us) => {
            let out: Box<dyn Write + Send> = match args.value("--slow-log-file") {
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
    let store = source.open()?;
    let pipeline = pipeline::Pipeline::new(
        store,
        slow_log,
        source.index.as_deref().map(std::path::PathBuf::from),
        args.number("--compact-after").unwrap_or(0),
        args.has("--listen"),
    );
    let workers = args.number("--workers");
    let quiet = args.has("--quiet");

    if let Some(addr) = args.value("--listen") {
        // Socket front end. Handler threads default to every core — it's
        // a server.
        let reload = source.index;
        let reload_signal = match args.value("--reload-signal") {
            Some(name) => reload_signal(name).flatten(),
            None => Some(server::sig::SIGHUP),
        };
        return server::serve_listen(
            pipeline,
            server::ServerConfig {
                addr: addr.to_string(),
                workers: resolve_workers(workers.or(Some(0))),
                max_inflight,
                write_timeout: Duration::from_millis(
                    args.number("--write-timeout-ms").unwrap_or(30_000),
                ),
                // A reload signal without a reload source would only ever
                // log failures; leave it uninstalled.
                reload_signal: reload.as_ref().and(reload_signal),
                reload,
                reload_retries: args.number("--reload-retries").unwrap_or(0),
                reload_backoff: Duration::from_millis(
                    args.number("--reload-backoff-ms").unwrap_or(100),
                ),
                scrub_interval: args
                    .number("--scrub-interval-s")
                    .filter(|&s| s > 0)
                    .map(Duration::from_secs),
                quiet,
            },
        );
    }

    // Stdin: the reader chunks lines for the query workers, which answer
    // on per-chunk generation snapshots, and the writer takes the chunks'
    // result slots in input order at every worker count. `+u v` / `-u v`
    // lines swap in a repaired generation between chunks.
    let workers = resolve_workers(workers);
    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        eprintln!("serving with {workers} worker(s): one `u v` pair per line, Ctrl-D to finish");
    }
    let t0 = Instant::now();
    let input = stdin.lock();
    let closed = pool::run(
        &pipeline,
        // No more query threads than the workload has chunks.
        workers,
        std::io::stdout(),
        |answer, worker, sent| pipeline.record(answer, "stdin", worker, sent),
        |feed| pool::serve_stdin(&pipeline, input, feed),
    )?;
    if closed {
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
    let args = Args::parse(args, &[UPDATE_FLAGS]);
    let path = args
        .path
        .clone()
        .unwrap_or_else(|| usage_error("update needs an index-file path"));

    // The whole script is read before anything is opened or changed.
    let deltas = match args.value("--deltas") {
        Some(file) => {
            let f = std::fs::File::open(file).map_err(|e| format!("opening {file}: {e}"))?;
            update::parse_delta_script(std::io::BufReader::new(f), file)?
        }
        None => update::parse_delta_script(std::io::stdin().lock(), "stdin")?,
    };

    let t0 = Instant::now();
    let store = IndexStore::open(&path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut engine = UpdateEngine::from_store(
        &store,
        Some(std::path::PathBuf::from(&path)),
        args.number("--compact-after").unwrap_or(0),
    );
    // The engine shares the validated image; this handle is not needed.
    drop(store);

    let applied = engine.apply(&deltas).map_err(|e| e.to_string())?;
    let noops = deltas.len() as u64 - applied;
    let published = engine
        .publish(args.has("--compact"))
        .map_err(|e| e.to_string())?;
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
    // Through the patch-aware label accessor: a container whose pending
    // journal opened patched reports its current labels, not the base's.
    let index = store.index();
    let landmarks = index.landmarks();
    let mut freq = vec![0u64; landmarks.len()];
    let mut sizes: Vec<u64> = (0..index.num_vertices() as VertexId)
        .map(|v| {
            let mut size = 0;
            for (rank, _) in index.label(v) {
                if let Some(slot) = freq.get_mut(rank as usize) {
                    *slot += 1;
                }
                size += 1;
            }
            size
        })
        .collect();
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
    let args = Args::parse(args, &[INSPECT_FLAGS]);
    let path = args
        .path
        .clone()
        .unwrap_or_else(|| usage_error("inspect needs an index-file path"));
    let show_stats = args.has("--stats");

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
            "format:        HCLSTOR v{} (checksum {:#018x}, verified, crc kernel {})",
            meta.version,
            meta.checksum,
            hcl_store::crc64_kernel()
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
        other => usage_error(format_args!("unknown command `{other}`")),
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

    /// The pairs `scan_reader` finds in `text`, which must be the same
    /// for every buffer size: lines cut at a buffer edge, lines longer
    /// than the buffer, and the whole text in one read.
    fn scan(text: &[u8], what: &str) -> Result<Vec<(usize, VertexId, VertexId)>, String> {
        let scan_in = |chunk: usize| {
            let mut pairs = Vec::new();
            scan_reader(
                &mut std::io::Cursor::new(text),
                what,
                chunk,
                |lineno, u, v| pairs.push((lineno, u, v)),
            )
            .map(|_| pairs)
        };
        let whole = scan_in(READ_CHUNK);
        for chunk in [1, 2, 3, 5, 8, 13] {
            assert_eq!(scan_in(chunk), whole, "{chunk}-byte buffer over {text:?}");
        }
        whole
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
