//! Load generator that measures the server rather than itself.
//!
//! One process, `conns = max(1, nproc / 2)` keep-alive connections, and two
//! threads per connection — a sender and a reader — so the process never
//! runs more threads than cores:
//!
//! * the **sender** writes request `i` at `t0 + i·gap` (open loop) or as
//!   soon as a pipeline slot frees up (closed loop); it never waits for a
//!   response except when `depth` requests are already outstanding;
//! * the **reader** blocks on the socket and timestamps each response the
//!   moment its last byte is parsed, never gated on the next send.
//!
//! Open-loop latency is measured from the *scheduled* send time, so a
//! stalled server shows up as queueing delay; how late the sender itself
//! ran is reported separately.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How requests are paced.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Request `i` is due at `i / rate` seconds; `count` requests in all.
    Open { rate: f64, count: u64 },
    /// Send whenever fewer than `depth` requests are outstanding, for
    /// `secs` seconds.
    Closed { secs: f64 },
}

/// One request's fate. Times are seconds since the step began.
#[derive(Clone, Debug)]
pub struct Record {
    pub index: u64,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status; 0 when the connection failed before a response.
    pub status: u16,
    pub body: Vec<u8>,
}

impl Record {
    /// Latency from the scheduled send time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the sender wrote the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

pub struct Step {
    pub records: Vec<Record>,
    pub secs: f64,
}

/// Connections (and half the threads) the generator uses on this machine.
pub fn connections() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).max(1)
}

/// Read one `Content-Length`-framed HTTP response off `stream`; `buf`
/// carries bytes of later pipelined responses. Returns status and body.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<(u16, Vec<u8>)> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
            let text = std::str::from_utf8(&buf[..head]).ok()?;
            let status = text.split_ascii_whitespace().nth(1)?.parse().ok()?;
            let len: usize = text
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            while buf.len() < head + len {
                let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[head..head + len].to_vec();
            buf.drain(..head + len);
            return Some((status, body));
        }
        let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Drive `addr` with requests `first_index..` built by `frame`, paced by
/// `pace`, with at most `depth` requests outstanding per connection.
pub fn run(
    addr: SocketAddr,
    pace: Pace,
    depth: usize,
    first_index: u64,
    frame: &(dyn Fn(u64) -> Vec<u8> + Sync),
) -> Step {
    let conns = connections() as u64;
    let t0 = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..conns)
            .map(|c| {
                let (inflight_tx, inflight_rx) = mpsc::channel::<(u64, f64, f64)>();
                let (credit_tx, credit_rx) = mpsc::channel::<()>();
                for _ in 0..depth.max(1) {
                    let _ = credit_tx.send(());
                }
                let stream = TcpStream::connect(addr).ok();
                let reader_stream = stream.as_ref().and_then(|s| s.try_clone().ok());
                scope.spawn(move || {
                    let mut stream = stream;
                    if let Some(s) = &stream {
                        let _ = s.set_nodelay(true);
                    }
                    let mut i = first_index + c;
                    // The reader drops its credit sender once the
                    // connection fails, which ends this loop.
                    while credit_rx.recv().is_ok() {
                        let due = match pace {
                            Pace::Open { rate, count } => {
                                if i - first_index >= count {
                                    return;
                                }
                                let due = (i - first_index) as f64 / rate;
                                let wait = due - t0.elapsed().as_secs_f64();
                                if wait > 0.0 {
                                    std::thread::sleep(Duration::from_secs_f64(wait));
                                }
                                due
                            }
                            Pace::Closed { secs } => {
                                let now = t0.elapsed().as_secs_f64();
                                if now >= secs {
                                    return;
                                }
                                now
                            }
                        };
                        let sent = t0.elapsed().as_secs_f64();
                        // Queue the entry first, so a failed write still
                        // leaves a record for the reader to fail.
                        if inflight_tx.send((i, due, sent)).is_err() {
                            return;
                        }
                        let wrote = match stream.as_mut() {
                            Some(s) => s.write_all(&frame(i)).is_ok(),
                            None => false,
                        };
                        if !wrote {
                            return;
                        }
                        i += conns;
                    }
                });
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut buf = Vec::new();
                    let mut stream = reader_stream;
                    let mut credit_tx = Some(credit_tx);
                    if let Some(s) = &stream {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(20)));
                    }
                    for (index, due, sent) in inflight_rx.iter() {
                        let got = stream.as_mut().and_then(|s| read_response(s, &mut buf));
                        let done = t0.elapsed().as_secs_f64();
                        let (status, body) = match got {
                            Some(response) => {
                                if let Some(tx) = &credit_tx {
                                    let _ = tx.send(());
                                }
                                response
                            }
                            None => {
                                // Stop reading and stop the sender; every
                                // request still in flight fails.
                                stream = None;
                                credit_tx = None;
                                (0, Vec::new())
                            }
                        };
                        out.push(Record {
                            index,
                            due,
                            sent,
                            done,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("load reader thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    Step {
        records,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// One-shot `GET` on a fresh connection; returns status and body.
pub fn get(addr: SocketAddr, path: &str) -> Option<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n").as_bytes())
        .ok()?;
    read_response(&mut s, &mut Vec::new())
}

/// A fake server that answers every request exactly `delay` after its
/// last byte arrived, in order, with `200 ok`. Runs until the returned
/// sender is dropped and the load's connections close.
pub struct FakeResponder {
    pub addr: SocketAddr,
    stop: mpsc::Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FakeResponder {
    pub fn start(delay: Duration) -> std::io::Result<FakeResponder> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while matches!(stopped.try_recv(), Err(mpsc::TryRecvError::Empty)) {
                match listener.accept() {
                    Ok((s, _)) => conns.push(std::thread::spawn(move || serve_fake(s, delay))),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(FakeResponder {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for FakeResponder {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_fake(mut stream: TcpStream, delay: Duration) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Instant>();
    let answer = std::thread::spawn(move || {
        for arrived in rx {
            let wait = (arrived + delay).saturating_duration_since(Instant::now());
            std::thread::sleep(wait);
            if writer
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .is_err()
            {
                return;
            }
        }
    });
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    'read: while let Ok(n) = stream.read(&mut chunk) {
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Ok(Some(req)) = privim_serve::http::parse_one(&buf) {
            buf.drain(..req.consumed);
            if tx.send(Instant::now()).is_err() {
                break 'read;
            }
        }
    }
    drop(tx);
    let _ = answer.join();
}

/// A request frame for the fake responder.
pub fn probe_frame(_: u64) -> Vec<u8> {
    b"POST /probe HTTP/1.1\r\nHost: b\r\nContent-Length: 2\r\n\r\n{}".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pipelined_response_is_recorded_in_order() {
        let fake = FakeResponder::start(Duration::from_millis(1)).expect("bind fake responder");
        let step = run(
            fake.addr,
            Pace::Open {
                rate: 2000.0,
                count: 200,
            },
            8,
            0,
            &probe_frame,
        );
        assert_eq!(step.records.len(), 200);
        for (i, r) in step.records.iter().enumerate() {
            assert_eq!(r.index, i as u64);
            assert_eq!((r.status, r.body.as_slice()), (200, &b"ok"[..]));
            assert!(r.done >= r.sent && r.sent >= r.due - 1e-9);
        }
        let closed = run(fake.addr, Pace::Closed { secs: 0.2 }, 4, 1000, &probe_frame);
        assert!(!closed.records.is_empty());
        assert!(closed
            .records
            .iter()
            .all(|r| r.status == 200 && r.index >= 1000));
    }

    #[test]
    fn a_refused_connection_fails_every_request() {
        // Bind and drop: nothing listens on the port any more.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("ephemeral port");
        let step = run(
            addr,
            Pace::Open {
                rate: 1000.0,
                count: 10,
            },
            4,
            0,
            &probe_frame,
        );
        assert!(!step.records.is_empty());
        assert!(step.records.iter().all(|r| r.status == 0));
    }
}
