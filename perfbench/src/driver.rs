//! Open-loop load driver over loopback TCP with the binary wire.
//!
//! Request `k` of a run is due at `k / rate` seconds after the start,
//! whatever happened to earlier requests, and its latency is timed from
//! that due time, so a stall is charged to every request queued behind
//! it. One thread per connection both sends and receives over a
//! nonblocking socket (at most `nproc` of each). Connection `c` carries every request `k` with
//! `k % conns == c`; each trace pass runs on a fresh stream id
//! `base + pass·conns + c`, so with as many connections as shards the
//! streams of different connections execute on different shards.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tagnn_serve::binwire::{self, FrameReader};
use tagnn_serve::loadgen::Trace;
use tagnn_serve::WindowResult;

use crate::stats;

/// How long replies may trail the last send before the rest count as
/// unanswered.
const DRAIN: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Unanswered,
    Ok,
    Shed,
    Error,
}

#[derive(Debug, Clone)]
pub struct Request {
    pub due: Duration,
    pub sent: Duration,
    pub done: Option<Duration>,
    pub status: Status,
    pub windows: Vec<WindowResult>,
}

impl Request {
    /// Client latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| (d.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    /// Client latency from the actual send, in milliseconds.
    pub fn service_ms(&self) -> Option<f64> {
        self.done
            .map(|d| (d.saturating_sub(self.sent)).as_secs_f64() * 1e3)
    }
}

pub struct RunOut {
    pub requests: Vec<Request>,
    /// Most requests that were due but not yet sent at any send.
    pub max_backlog: usize,
    /// Distinct stream ids used.
    pub streams: u64,
}

impl RunOut {
    pub fn send_lag_p99_ms(&self) -> f64 {
        let lags: Vec<f64> = self
            .requests
            .iter()
            .map(|r| r.sent.saturating_sub(r.due).as_secs_f64() * 1e3)
            .collect();
        stats::pct(&lags, 0.99).value
    }

    /// The generator shares the host's cores with the server, so it
    /// sends a little late whenever both are busy; latency is timed from
    /// the due time either way. A run is invalid only when the generator
    /// fell far enough behind to stop offering its load: a send-lag p99
    /// above half the workload's latency limit.
    pub fn behind(&self, limit_ms: f64) -> Option<String> {
        let lag = self.send_lag_p99_ms();
        if lag > limit_ms / 2.0 {
            Some(format!(
                "load generator fell behind: send lag p99 {lag:.2} ms, max backlog {}",
                self.max_backlog
            ))
        } else {
            None
        }
    }
}

/// One connection's requests, tagged with their global index, and its
/// largest backlog.
type ConnOut = (Vec<(usize, Request)>, usize);

/// Runs `rate` requests per second for `duration` against `addr`.
pub fn open_loop(
    addr: SocketAddr,
    trace: &Trace,
    rate: f64,
    duration: Duration,
    conns: usize,
    stream_base: u64,
) -> std::io::Result<RunOut> {
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    let mut sockets = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        sockets.push(s);
    }
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<std::io::Result<ConnOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sockets
            .into_iter()
            .enumerate()
            .map(|(c, sock)| {
                scope.spawn(move || {
                    connection(sock, trace, rate, total, conns, c, start, stream_base)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver connection thread panicked"))
            .collect()
    });
    let mut requests: Vec<(usize, Request)> = Vec::with_capacity(total);
    let mut max_backlog = 0;
    for r in results {
        let (reqs, backlog) = r?;
        requests.extend(reqs);
        max_backlog = max_backlog.max(backlog);
    }
    requests.sort_by_key(|(k, _)| *k);
    let per_conn = total.div_ceil(conns.max(1));
    Ok(RunOut {
        requests: requests.into_iter().map(|(_, r)| r).collect(),
        max_backlog,
        streams: (per_conn.div_ceil(trace.len()) * conns) as u64,
    })
}

/// Longest idle sleep between polls of a connection. The socket is
/// nonblocking and polled, because socket read timeouts round up to the
/// kernel tick and would make the generator itself late.
const POLL: Duration = Duration::from_micros(200);

#[allow(clippy::too_many_arguments)]
fn connection(
    mut sock: TcpStream,
    trace: &Trace,
    rate: f64,
    total: usize,
    conns: usize,
    c: usize,
    start: Instant,
    stream_base: u64,
) -> std::io::Result<ConnOut> {
    let mine: Vec<usize> = (c..total).step_by(conns).collect();
    let mut reqs: Vec<Request> = mine
        .iter()
        .map(|&k| Request {
            due: Duration::from_secs_f64(k as f64 / rate),
            sent: Duration::ZERO,
            done: None,
            status: Status::Unanswered,
            windows: Vec::new(),
        })
        .collect();
    let last_due = reqs.last().map_or(Duration::ZERO, |r| r.due);
    sock.set_nonblocking(true)?;
    let mut reader = FrameReader::new();
    // Encoded requests not yet fully written, and for each request the
    // offset in `wbuf` where its bytes end.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut ends: VecDeque<(usize, usize)> = VecDeque::new();
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut max_backlog = 0usize;
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    loop {
        let mut progress = false;
        let now = start.elapsed();
        while next < reqs.len() && reqs[next].due <= now {
            let overdue = reqs[next..].partition_point(|r| r.due <= now) + ends.len();
            max_backlog = max_backlog.max(overdue);
            let pass = next / trace.len();
            let (events, flush) = &trace[next % trace.len()];
            let stream = stream_base + (pass * conns + c) as u64;
            binwire::encode_infer(&mut wbuf, next as u64, stream, events, *flush);
            ends.push_back((wbuf.len(), next));
            next += 1;
        }
        while written < wbuf.len() {
            match sock.write(&wbuf[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    written += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let sent_at = start.elapsed();
        while ends.front().is_some_and(|&(end, _)| end <= written) {
            let (_, j) = ends.pop_front().expect("front exists");
            reqs[j].sent = sent_at;
        }
        if written == wbuf.len() {
            wbuf.clear();
            written = 0;
        }
        loop {
            match reader.read_frame(&mut sock) {
                Ok(Some((kind, id, body))) => {
                    progress = true;
                    let Some(r) = reqs.get_mut(id as usize) else {
                        continue;
                    };
                    if r.done.is_some() {
                        continue;
                    }
                    r.done = Some(start.elapsed());
                    answered += 1;
                    r.status = match kind {
                        binwire::kind::INFER_REPLY => match binwire::decode_reply(&body) {
                            Ok(reply) => {
                                r.windows = reply.windows;
                                Status::Ok
                            }
                            Err(_) => Status::Error,
                        },
                        binwire::kind::ERROR => match binwire::decode_error(&body) {
                            Ok((code, _)) if code == "overloaded" => Status::Shed,
                            _ => Status::Error,
                        },
                        _ => Status::Error,
                    };
                }
                Ok(None) => return Err(ErrorKind::UnexpectedEof.into()),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = start.elapsed();
        if next == reqs.len() && (answered == reqs.len() || now >= last_due + DRAIN) {
            break;
        }
        if !progress {
            let until_due = reqs.get(next).map_or(POLL, |r| r.due.saturating_sub(now));
            std::thread::sleep(until_due.clamp(Duration::from_micros(20), POLL));
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
    Ok((mine.into_iter().zip(reqs).collect(), max_backlog))
}
