//! The load generator: closed-loop TCP readers, `POST /update` writers
//! (closed loop or on a fixed schedule), and one-shot HTTP helpers. One
//! process, at most two client threads — the box has two cores.

use crate::gen::{push_pair_line, PairStream};
use crate::host::{Meter, Timed};
use hcl_core::VertexId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// An operation slower than this counts as failed. Generous on purpose:
/// the first insert on a 300k-vertex graph takes 2–3 s on a quiet host (it
/// creates the update engine) and this host has stretches twice as slow;
/// a timeout must mean a hang, not a busy neighbour.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// Distance value recorded for an `inf` answer.
pub const INF: u32 = u32::MAX;

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(OP_TIMEOUT)).ok();
    stream.set_write_timeout(Some(OP_TIMEOUT)).ok();
    Ok(stream)
}

/// Parses one `u v d` / `u v inf` answer line.
pub fn parse_answer(line: &[u8]) -> Option<(VertexId, VertexId, u32)> {
    let text = std::str::from_utf8(line).ok()?;
    let mut it = text.split_ascii_whitespace();
    let u = it.next()?.parse().ok()?;
    let v = it.next()?.parse().ok()?;
    let d = match it.next()? {
        "inf" => INF,
        d => d.parse().ok()?,
    };
    it.next().is_none().then_some((u, v, d))
}

/// One answered read: when it was sent and received (nanoseconds since
/// the run's epoch) and what came back.
#[derive(Clone, Copy, Debug)]
pub struct Read1 {
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub u: VertexId,
    pub v: VertexId,
    pub d: u32,
}

impl Read1 {
    pub fn latency_us(&self) -> f64 {
        (self.recv_ns - self.sent_ns) as f64 / 1e3
    }
}

/// What one reader connection saw.
#[derive(Default)]
pub struct ReadLog {
    pub reads: Vec<Read1>,
    /// Requests that got no, a late, or a malformed answer.
    pub failed: u64,
}

/// The median round trip of `reads` (one connection's, in the order sent)
/// with the interval they cover; `None` when there are none.
pub fn median_us(reads: &[Read1]) -> Option<(Timed, f64)> {
    let covers = Timed {
        from_ns: reads.first()?.sent_ns,
        to_ns: reads.last()?.recv_ns,
        core: None,
    };
    let rtt: Vec<f64> = reads.iter().map(Read1::latency_us).collect();
    Some((covers, crate::stats::median(&rtt)))
}

/// Where a reader's queries come from.
pub enum Queries {
    /// Uniform seeded pairs.
    Stream(PairStream),
    /// `u u` for a fixed `u`: the parse/queue/write/loopback floor.
    Null(VertexId),
}

/// Closed loop on one persistent TCP connection: send `u v`, wait for the
/// answer, repeat until `deadline`. Reads answered before `record_from`
/// are warm-up and are not recorded.
pub fn read_closed_loop(
    addr: &str,
    mut queries: Queries,
    epoch: Instant,
    record_from: Instant,
    deadline: Instant,
) -> Result<ReadLog, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut log = ReadLog::default();
    let mut request = Vec::with_capacity(32);
    let mut answer = Vec::with_capacity(32);
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            return Ok(log);
        }
        let (u, v) = match &mut queries {
            Queries::Stream(pairs) => pairs.next().expect("pair streams are endless"),
            Queries::Null(u) => (*u, *u),
        };
        request.clear();
        push_pair_line(&mut request, u, v);
        answer.clear();
        let got = writer
            .write_all(&request)
            .and_then(|()| reader.read_until(b'\n', &mut answer));
        let received = Instant::now();
        let record = sent >= record_from;
        match got {
            Ok(n) if n > 0 => match parse_answer(&answer) {
                Some((au, av, d)) if (au, av) == (u, v) => {
                    if record {
                        log.reads.push(Read1 {
                            sent_ns: (sent - epoch).as_nanos() as u64,
                            recv_ns: (received - epoch).as_nanos() as u64,
                            u,
                            v,
                            d,
                        });
                    }
                }
                _ => log.failed += u64::from(record),
            },
            // Timed out, reset or closed: the connection is unusable.
            _ => {
                log.failed += 1;
                return Ok(log);
            }
        }
    }
}

/// A complete HTTP/1.1 exchange on a fresh connection (the server closes
/// after one). Returns the status code and the body.
fn http(addr: &str, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(request)
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("not an HTTP response: {:.60}", text))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, body)| body.to_string());
    Ok((status, body))
}

pub fn http_get(addr: &str, target: &str) -> Result<(u16, String), String> {
    let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    http(addr, request.as_bytes())
}

/// One counter from a `/metrics` body (`name value` lines).
pub fn metric_counter(metrics_body: &str, name: &str) -> Option<f64> {
    metrics_body.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.starts_with(' ').then(|| rest.trim().parse().ok())?
    })
}

/// One acknowledged (or failed) single-edge insert.
#[derive(Clone, Copy, Debug)]
pub struct Write1 {
    pub u: VertexId,
    pub v: VertexId,
    /// When the request was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the 200 arrived.
    pub acked_ns: u64,
    /// How long the generator itself ran behind: sent − max(due, previous
    /// write done). Zero in a closed loop.
    pub late_ns: u64,
    /// 200 received and the edge answered distance 1 on a fresh connection.
    pub ok: bool,
}

impl Write1 {
    /// Due (or sent) → acknowledged, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.acked_ns - self.due_ns) as f64 / 1e6
    }
}

#[derive(Default)]
pub struct WriteLog {
    pub writes: Vec<Write1>,
    pub failed: u64,
    /// First request due → last visibility check done.
    pub wall: Duration,
    /// The same stretch on the run's clock; yardstick readings on every
    /// core were taken throughout it, between the writes.
    pub during: Timed,
}

/// A yardstick reading between two scheduled writes is skipped when the
/// next write is due sooner than this.
const READING_ALLOWANCE: Duration = Duration::from_millis(60);

/// When each write of a stream goes out.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Next write as soon as the previous one is acknowledged and visible.
    Closed,
    /// Write `k` is due at `(k + ½) · period`, whatever happened before.
    Open { period: Duration },
}

/// One writer: for each script edge, `POST /update` with one `+u v` line,
/// wait for the 200, then ask for `u v` on a fresh TCP connection, which
/// must answer 1 (visible after acknowledgement).
pub fn write_stream(
    addr: &str,
    script: &[(VertexId, VertexId)],
    pace: Pace,
    epoch: Instant,
    meter: &Meter,
) -> WriteLog {
    let mut log = WriteLog::default();
    let t0 = Instant::now();
    let mut previous_done = t0;
    for (k, &(u, v)) in script.iter().enumerate() {
        // A reading on every core while no write is in flight, unless the
        // next one is (nearly) due already.
        let time_for_reading = match pace {
            Pace::Closed => true,
            Pace::Open { period } => {
                Instant::now() + READING_ALLOWANCE < t0 + period.mul_f64(k as f64 + 0.5)
            }
        };
        if time_for_reading {
            meter.read(None);
        }
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Open { period } => {
                let due = t0 + period.mul_f64(k as f64 + 0.5);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due
            }
        };
        let body = format!("+{u} {v}\n");
        let request = format!(
            "POST /update HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let sent = Instant::now();
        let response = http(addr, request.as_bytes());
        let acked = Instant::now();
        let ok = matches!(response, Ok((200, _)))
            && acked - sent <= OP_TIMEOUT
            && query_once(addr, u, v) == Some(1);
        log.failed += u64::from(!ok);
        let ns = |t: Instant| (t - epoch).as_nanos() as u64;
        log.writes.push(Write1 {
            u,
            v,
            due_ns: ns(due),
            sent_ns: ns(sent),
            acked_ns: ns(acked),
            late_ns: (sent - due.max(previous_done)).as_nanos() as u64,
            ok,
        });
        previous_done = Instant::now();
    }
    log.wall = t0.elapsed();
    meter.read(None);
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    log.during = Timed {
        from_ns: ns(t0),
        to_ns: ns(t0 + log.wall),
        core: None,
    };
    log
}

/// One query on a fresh TCP connection.
pub fn query_once(addr: &str, u: VertexId, v: VertexId) -> Option<u32> {
    let stream = connect(addr).ok()?;
    let mut reader = BufReader::new(&stream);
    let mut request = Vec::new();
    push_pair_line(&mut request, u, v);
    let mut answer = Vec::new();
    let got = (&stream)
        .write_all(&request)
        .and_then(|()| reader.read_until(b'\n', &mut answer));
    got.ok()?;
    parse_answer(&answer)
        .filter(|&(au, av, _)| (au, av) == (u, v))
        .map(|(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn median_round_trip_comes_with_the_interval_covered() {
        // One read per millisecond; round trips of 5, 9 and 1 us.
        let reads: Vec<Read1> = [5_000u64, 9_000, 1_000]
            .iter()
            .enumerate()
            .map(|(k, rtt_ns)| {
                let sent_ns = 7_000_000 + k as u64 * 1_000_000;
                Read1 {
                    sent_ns,
                    recv_ns: sent_ns + rtt_ns,
                    u: 0,
                    v: 1,
                    d: 1,
                }
            })
            .collect();
        let (covers, p50) = median_us(&reads).unwrap();
        assert_eq!(p50, 5.0);
        assert_eq!((covers.from_ns, covers.to_ns), (7_000_000, 9_001_000));
        assert!(median_us(&[]).is_none());
    }

    #[test]
    fn answers_parse_and_reject_garbage() {
        assert_eq!(parse_answer(b"3 7 2\n"), Some((3, 7, 2)));
        assert_eq!(parse_answer(b"3 7 inf\r\n"), Some((3, 7, INF)));
        assert_eq!(parse_answer(b"3 7\n"), None);
        assert_eq!(parse_answer(b"3 7 2 9\n"), None);
        assert_eq!(parse_answer(b"error: server busy\n"), None);
        let body = "hcl_answers_total 12\nhcl_answers_bfs_total 5\n";
        assert_eq!(metric_counter(body, "hcl_answers_total"), Some(12.0));
        assert_eq!(metric_counter(body, "hcl_answers"), None);
    }

    /// A server that takes `stall` to acknowledge its first update and is
    /// instant afterwards, answering every visibility query with 1.
    fn stalling_server(stall: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut first = true;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line.starts_with("POST") {
                    // Headers, then the one-line body.
                    while line != "\r\n" {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                    }
                    reader.read_line(&mut line).unwrap();
                    if std::mem::take(&mut first) {
                        std::thread::sleep(stall);
                    }
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                        .unwrap();
                } else {
                    let answer = format!("{} 1\n", line.trim());
                    stream.write_all(answer.as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_from_when_a_write_was_due() {
        // Period 40 ms, first write stalls 150 ms: writes 1 and 2 were due
        // at 60 and 100 ms but could only go out after the stall, so their
        // due-time latency must include the wait — while the generator
        // itself was never late.
        let addr = stalling_server(Duration::from_millis(150));
        let script = [(0, 1), (2, 3), (4, 5), (6, 7)];
        let period = Duration::from_millis(40);
        let log = write_stream(
            &addr,
            &script,
            Pace::Open { period },
            Instant::now(),
            &Meter::new(Instant::now()),
        );
        assert_eq!(log.failed, 0);
        assert!(log.writes[0].latency_ms() >= 150.0);
        // Due at 60 ms, sent only after the first finished at ≥ 170 ms.
        assert!(log.writes[1].latency_ms() >= 100.0, "{:?}", log.writes[1]);
        assert!(log.writes[2].latency_ms() >= 60.0, "{:?}", log.writes[2]);
        let service_ms = |w: &Write1| (w.acked_ns - w.sent_ns) as f64 / 1e6;
        assert!(service_ms(&log.writes[1]) < 50.0);
        for w in &log.writes {
            assert!(w.late_ns < 30_000_000, "generator late: {w:?}");
        }
    }

    #[test]
    fn closed_loop_latency_is_service_time() {
        let addr = stalling_server(Duration::from_millis(80));
        let log = write_stream(
            &addr,
            &[(0, 1), (2, 3)],
            Pace::Closed,
            Instant::now(),
            &Meter::new(Instant::now()),
        );
        assert_eq!(log.failed, 0);
        assert!(log.writes[0].latency_ms() >= 80.0);
        assert!(log.writes[1].latency_ms() < 50.0);
        assert!(log.writes.iter().all(|w| w.late_ns < 5_000_000));
    }
}
