//! The epoll front end: accept, nonblocking socket I/O, and connection
//! timeouts on one reactor thread; request *execution* runs on a worker
//! pool.
//!
//! Division of labor (DESIGN.md §15): the reactor owns the listener and
//! every connection's byte streams — it accepts, reads into each
//! connection's buffer, and drains write buffers as sockets accept
//! bytes. What to do with those bytes is [`crate::conn::Conn`]'s policy:
//! it parses pipelined requests, offers each to the bounded job queue
//! (503 shed at the cap), and orders the responses. This module keeps
//! only the syscalls, the timer wheel, the job queue and the metrics.
//! Workers shed a job whose queue wait exceeded the deadline and run
//! every other one through the shared routing/admission/journaling path
//! (`server::process_request`).
//!
//! The poller is raw `epoll_create1`/`epoll_ctl`/`epoll_wait` (via
//! `extern "C"` shims over `std::os::fd` — no libc crate), so the module
//! is Linux-only; elsewhere `server::start` refuses to serve.
//!
//! Timeouts ride a coarse timer wheel (100 ms ticks): an idle kept-alive
//! connection is closed after `idle_timeout`, and a connection that has
//! *started but not finished* sending a request is closed
//! `header_timeout` after the first partial byte — measured from the
//! start of the partial request, not the last byte received, so a
//! slowloris dribbling one header byte per second cannot hold memory
//! open indefinitely.

use crate::conn::{Conn, ParsedJob, Pumped};
use crate::http::{error_frame, response_frame, Request};
use crate::server::{lock, process_request, Shared};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Timer-wheel tick. Coarse on purpose: connection timeouts are seconds,
/// and a 100 ms granularity bounds the reactor's idle wakeup rate at 10/s.
const TICK: Duration = Duration::from_millis(100);
/// Wheel slots; deadlines beyond `SLOTS * TICK` are clamped to the
/// horizon and lazily re-armed when they fire early.
const SLOTS: usize = 512;
/// Poll token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Poll token of the waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Front-end tunables (carved out of `ServeConfig` by `server::start`).
#[derive(Clone)]
pub(crate) struct ReactorConfig {
    pub workers: usize,
    pub queue_cap: usize,
    pub idle_timeout: Duration,
    pub header_timeout: Duration,
    pub max_pipeline: u64,
}

/// One parsed request traveling to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    request: Request,
    keep_alive: bool,
    arrival: Instant,
}

/// One finished response traveling back to the reactor.
struct Completion {
    token: u64,
    seq: u64,
    frame: Vec<u8>,
    /// The server closes after this response (a shed or a drain). A
    /// request's own `Connection: close` and the peer's half-close are
    /// the connection's policy and never set this.
    close_after: bool,
}

/// State shared between the reactor thread and its workers.
struct ReactorShared {
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the waker pair; any thread can poke the reactor out
    /// of `wait` with a 1-byte write (nonblocking: a full pipe already
    /// guarantees a pending wakeup).
    waker_tx: UnixStream,
    /// Set by the reactor as it exits; workers drain the job queue and
    /// stop.
    reactor_done: AtomicBool,
}

impl ReactorShared {
    fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1]);
    }
}

/// Handles for a running reactor front end.
pub(crate) struct ReactorHandle {
    rs: Arc<ReactorShared>,
    reactor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Wake the reactor so it notices `shutting_down`, wait for it to
    /// drain every connection, then join the workers.
    pub(crate) fn shutdown(self) {
        self.rs.wake();
        let _ = self.reactor.join();
        for w in self.workers {
            self.rs.jobs_ready.notify_all();
            let _ = w.join();
        }
    }
}

/// Spawn the reactor thread and its worker pool over an already-bound
/// listener.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: ReactorConfig,
) -> std::io::Result<ReactorHandle> {
    let (waker_tx, waker_rx) = UnixStream::pair()?;
    waker_tx.set_nonblocking(true)?;
    waker_rx.set_nonblocking(true)?;
    listener.set_nonblocking(true)?;
    let rs = Arc::new(ReactorShared {
        jobs: Mutex::new(VecDeque::new()),
        jobs_ready: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker_tx,
        reactor_done: AtomicBool::new(false),
    });
    let reactor = {
        let rs = Arc::clone(&rs);
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        std::thread::spawn(move || reactor_loop(listener, waker_rx, &shared, &rs, &cfg))
    };
    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let rs = Arc::clone(&rs);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, &rs))
        })
        .collect();
    Ok(ReactorHandle {
        rs,
        reactor,
        workers,
    })
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Pop jobs, shed-or-route through the shared `process_request` path,
/// and push the finished frame back to the reactor.
fn worker_loop(shared: &Shared, rs: &ReactorShared) {
    loop {
        let popped = {
            let mut q = lock(&rs.jobs);
            loop {
                if let Some(job) = q.pop_front() {
                    shared.metrics.queue_pop();
                    break Some(job);
                }
                if rs.reactor_done.load(Ordering::SeqCst) {
                    break None;
                }
                // privim-lint: allow(panic, reason = "a poisoned server lock means a worker already panicked; propagating is the only sound recovery")
                q = rs.jobs_ready.wait(q).unwrap();
            }
        };
        let Some(job) = popped else {
            return; // reactor gone and queue empty: fully drained
        };
        // A reply that can no longer arrive in time is better dropped
        // than served late while newer requests rot. The 503 closes the
        // connection, and so does a drain, on every in-flight response.
        let (status, frame, ep, close) = if job.arrival.elapsed() >= shared.deadline {
            shared.metrics.shed();
            (503, error_frame(503, "shed: deadline exceeded while queued"), None, true)
        } else {
            let (routed, ct, ep) = process_request(&job.request, shared);
            let extra: Vec<(&str, String)> = routed
                .retry_after_secs
                .map(|s| vec![("Retry-After", s.to_string())])
                .unwrap_or_default();
            let close = shared.shutting_down.load(Ordering::SeqCst);
            let keep_alive = job.keep_alive && !close;
            let frame =
                response_frame(routed.status, ct, &extra, routed.body.as_bytes(), keep_alive);
            (routed.status, frame, ep, close)
        };
        let latency_us = job.arrival.elapsed().as_micros().min(u64::MAX as u128) as u64;
        match ep {
            Some(ep) => shared.metrics.observe(ep, latency_us, status),
            None => shared.metrics.observe_status(status),
        }
        {
            let mut c = lock(&rs.completions);
            c.push(Completion {
                token: job.token,
                seq: job.seq,
                frame,
                close_after: close,
            });
        }
        rs.wake();
        if shared.shutting_down.load(Ordering::SeqCst) {
            shared.metrics.drained();
        }
    }
}

// ---------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------

/// Coarse hashed timer wheel over connection tokens. Slots hold tokens
/// scheduled to fire at that tick; cancellation is lazy — the reactor
/// re-checks a fired token's *actual* deadline and re-arms it if
/// activity pushed the deadline out since scheduling.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<u64>>,
    /// The tick the wheel has advanced to.
    now: u64,
}

impl TimerWheel {
    pub(crate) fn new(nslots: usize) -> TimerWheel {
        TimerWheel {
            slots: (0..nslots.max(2)).map(|_| Vec::new()).collect(),
            now: 0,
        }
    }

    /// Schedule `token` to fire at `at_tick` (clamped into the wheel's
    /// horizon; never the current slot, so a just-scheduled token cannot
    /// fire in the same advance that scheduled it).
    pub(crate) fn schedule(&mut self, token: u64, at_tick: u64) {
        let horizon = (self.slots.len() - 1) as u64;
        let delay = at_tick.saturating_sub(self.now).clamp(1, horizon);
        let slot = ((self.now + delay) % self.slots.len() as u64) as usize;
        self.slots[slot].push(token);
    }

    /// Advance to `to_tick`, appending every fired token to `due`.
    pub(crate) fn advance(&mut self, to_tick: u64, due: &mut Vec<u64>) {
        while self.now < to_tick {
            self.now += 1;
            let slot = (self.now % self.slots.len() as u64) as usize;
            due.append(&mut self.slots[slot]);
        }
    }

}

// ---------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------

/// One readiness report from a poll wait.
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

mod sys {
    //! Raw epoll via `extern "C"` shims (ISSUE 10: zero dependencies —
    //! the workspace has no libc crate, matching the `signal()` shim in
    //! `bin/privim-serve.rs`).
    use super::Ready;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    /// Kernel `struct epoll_event`. x86-64 is the one ABI where the
    /// kernel declares it packed; everywhere else it is a plain C struct.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    }

    pub struct Poller {
        ep: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // privim-lint: allow(unsafe, reason = "epoll_create1 FFI takes one flag int and returns an fd or -1; the returned fd is immediately owned by OwnedFd so it cannot leak")
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // privim-lint: allow(unsafe, reason = "fd was just returned >= 0 by epoll_create1 and is owned by nothing else, satisfying from_raw_fd's exclusive-ownership contract")
            let ep = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Poller {
                ep,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: (if read { EPOLLIN | EPOLLRDHUP } else { 0 })
                    | (if write { EPOLLOUT } else { 0 }),
                data: token,
            };
            // privim-lint: allow(unsafe, reason = "epoll_ctl FFI: epfd and fd are live (epfd owned by self, fd owned by the caller's socket), and the event pointer refers to a stack value that outlives the call")
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        pub fn wait(&mut self, timeout: std::time::Duration, out: &mut Vec<Ready>) {
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let cap = self.buf.len() as i32;
            // privim-lint: allow(unsafe, reason = "epoll_wait FFI: the events pointer and maxevents come from the same live Vec, so the kernel writes only into owned memory; a negative return (EINTR included) is handled as zero events")
            let n = unsafe { epoll_wait(self.ep.as_raw_fd(), self.buf.as_mut_ptr(), cap, timeout_ms) };
            if n <= 0 {
                return; // timeout, or EINTR — the caller re-loops either way
            }
            for ev in &self.buf[..n as usize] {
                // A copy first: the struct is packed on x86-64, so field
                // reads must not take references into it.
                let (events, data) = (ev.events, ev.data);
                out.push(Ready {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
        }
    }
}

use sys::Poller;

// ---------------------------------------------------------------------
// The reactor event loop
// ---------------------------------------------------------------------

/// Reactor-side connection record: socket + protocol state machine +
/// interest/timer bookkeeping.
struct ConnEntry {
    stream: TcpStream,
    conn: Conn,
    /// Currently registered (read, write) interest.
    interest: (bool, bool),
    /// Tick of the last socket activity (read bytes, write progress, or
    /// a completion) — drives the idle timeout.
    last_activity_tick: u64,
    /// Tick at which the currently buffered *partial* request started —
    /// drives the header-read timeout. Cleared when the buffer empties.
    partial_since_tick: Option<u64>,
    /// Whether the wheel currently holds this token (lazy cancellation).
    timer_armed: bool,
    /// Socket hit a fatal error; discard instead of flushing.
    dead: bool,
}

impl ConnEntry {
    /// The tick at which this connection should be reaped: the header
    /// timeout (measured from the *start* of the buffered partial
    /// request) beats the idle timeout (measured from last activity).
    fn deadline_tick(&self, idle_ticks: u64, header_ticks: u64) -> u64 {
        if let Some(start) = self.partial_since_tick {
            start + header_ticks
        } else {
            self.last_activity_tick + idle_ticks
        }
    }
}

fn ticks(d: Duration) -> u64 {
    ((d.as_millis() + TICK.as_millis() - 1) / TICK.as_millis()).max(1) as u64
}

/// The reactor thread: one poller, one timer wheel, all connections.
// privim-lint: allow(wall-clock, reason = "timing-only telemetry and timeouts: the clock drives the timer wheel, arrival stamps, and idle reaping; no response payload depends on it")
fn reactor_loop(
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: &Shared,
    rs: &ReactorShared,
    cfg: &ReactorConfig,
) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => {
            // Cannot poll: report done so workers exit; shutdown() joins us.
            rs.reactor_done.store(true, Ordering::SeqCst);
            rs.jobs_ready.notify_all();
            return;
        }
    };
    let idle_ticks = ticks(cfg.idle_timeout);
    let header_ticks = ticks(cfg.header_timeout);
    let mut listener = Some(listener);
    if let Some(l) = &listener {
        if poller.register(l.as_raw_fd(), TOKEN_LISTENER, true, false).is_err() {
            rs.reactor_done.store(true, Ordering::SeqCst);
            rs.jobs_ready.notify_all();
            return;
        }
    }
    let _ = poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, true, false);

    let mut conns: BTreeMap<u64, ConnEntry> = BTreeMap::new();
    let mut wheel = TimerWheel::new(SLOTS);
    let mut next_token = TOKEN_FIRST_CONN;
    let t0 = Instant::now();
    let mut ready: Vec<Ready> = Vec::new();
    let mut due: Vec<u64> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut draining = false;

    loop {
        ready.clear();
        poller.wait(TICK, &mut ready);
        shared.metrics.reactor_wakeup();
        let now_tick = (t0.elapsed().as_millis() / TICK.as_millis()) as u64;
        touched.clear();

        // Drain transition: stop accepting, flip idle connections to
        // Draining. Connections mid-request (partial bytes buffered) are
        // left open so the request they already started is still served
        // ("no accepted request is abandoned"), bounded by the header
        // timeout.
        if !draining && shared.shutting_down.load(Ordering::SeqCst) {
            draining = true;
            if let Some(l) = listener.take() {
                let _ = poller.deregister(l.as_raw_fd());
            }
            for (&token, entry) in conns.iter_mut() {
                if entry.conn.partial_bytes() == 0 {
                    entry.conn.start_draining();
                }
                touched.push(token);
            }
        }

        // Timer expiries (lazy: re-check the real deadline, re-arm if
        // activity moved it).
        due.clear();
        wheel.advance(now_tick, &mut due);
        for &token in due.iter() {
            let Some(entry) = conns.get_mut(&token) else {
                continue;
            };
            entry.timer_armed = false;
            let deadline = entry.deadline_tick(idle_ticks, header_ticks);
            if deadline > now_tick {
                wheel.schedule(token, deadline);
                entry.timer_armed = true;
                continue;
            }
            if entry.conn.inflight() > 0 {
                // The worker deadline bounds this job; just re-check later.
                wheel.schedule(token, now_tick + idle_ticks);
                entry.timer_armed = true;
                continue;
            }
            if entry.partial_since_tick.is_some() {
                shared.metrics.header_timeout_close();
            } else {
                shared.metrics.idle_timeout_close();
            }
            entry.dead = true;
            touched.push(token);
        }

        // Readiness events.
        for i in 0..ready.len() {
            let (token, readable, writable) = (ready[i].token, ready[i].readable, ready[i].writable);
            match token {
                TOKEN_LISTENER => {
                    accept_ready(&mut poller, &listener, &mut conns, &mut next_token, now_tick, shared, draining);
                }
                TOKEN_WAKER => {
                    let mut sink = [0u8; 64];
                    while matches!((&waker_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                token => {
                    if let Some(entry) = conns.get_mut(&token) {
                        if readable {
                            read_ready(entry, token, now_tick, shared, rs, cfg);
                        }
                        if writable && !entry.dead {
                            write_ready(entry, now_tick);
                        }
                        touched.push(token);
                    }
                }
            }
        }

        // Worker completions: swap the vec out under the lock, apply after.
        let done: Vec<Completion> = {
            let mut c = lock(&rs.completions);
            std::mem::take(&mut *c)
        };
        for comp in done {
            let Some(entry) = conns.get_mut(&comp.token).filter(|e| !e.dead) else {
                continue; // connection died while the job was in flight
            };
            let (seq, frame, close_after) = (comp.seq, comp.frame, comp.close_after);
            drive(entry, comp.token, now_tick, shared, rs, cfg, |conn, admit| {
                conn.deliver(seq, frame, close_after, cfg.max_pipeline, admit)
            });
            entry.last_activity_tick = now_tick;
            // Opportunistic write: most responses fit the socket buffer,
            // so this usually finishes the exchange without another
            // EPOLLOUT round trip.
            write_ready(entry, now_tick);
            touched.push(comp.token);
        }

        // Finalize every touched connection: close finished/dead ones,
        // refresh interest + timers on the rest.
        touched.sort_unstable();
        touched.dedup();
        for &token in touched.iter() {
            let Some(entry) = conns.get_mut(&token) else {
                continue;
            };
            if entry.dead || entry.conn.finished() {
                let _ = poller.deregister(entry.stream.as_raw_fd());
                // Decrement the gauge before dropping the entry closes its
                // socket: a client that has seen EOF must never still read
                // the connection as open.
                shared.metrics.conn_closed();
                conns.remove(&token);
                continue;
            }
            let want = (
                entry.conn.wants_read(cfg.max_pipeline),
                !entry.conn.writable().is_empty(),
            );
            if want != entry.interest {
                let fd = entry.stream.as_raw_fd();
                if poller.modify(fd, token, want.0, want.1).is_err() {
                    entry.dead = true;
                } else {
                    entry.interest = want;
                }
            }
            if !entry.timer_armed {
                wheel.schedule(token, entry.deadline_tick(idle_ticks, header_ticks));
                entry.timer_armed = true;
            }
        }

        if draining && conns.is_empty() {
            break;
        }
    }
    rs.reactor_done.store(true, Ordering::SeqCst);
    rs.jobs_ready.notify_all();
}

/// Accept until `WouldBlock`. During drain the listener is already gone;
/// this also covers the race where a connection lands between the drain
/// flag and deregistration — it is accepted and immediately dropped.
fn accept_ready(
    poller: &mut Poller,
    listener: &Option<TcpListener>,
    conns: &mut BTreeMap<u64, ConnEntry>,
    next_token: &mut u64,
    now_tick: u64,
    shared: &Shared,
    draining: bool,
) {
    let Some(l) = listener else {
        return;
    };
    loop {
        let stream = match l.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        if draining {
            continue; // dropped: never accepted into service
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller.register(stream.as_raw_fd(), token, true, false).is_err() {
            continue;
        }
        shared.metrics.conn_opened();
        conns.insert(
            token,
            ConnEntry {
                stream,
                conn: Conn::new(),
                interest: (true, false),
                last_activity_tick: now_tick,
                partial_since_tick: None,
                timer_armed: false,
                dead: false,
            },
        );
    }
}

/// Read until `WouldBlock`/EOF, then parse and enqueue whatever became
/// complete.
fn read_ready(
    entry: &mut ConnEntry,
    token: u64,
    now_tick: u64,
    shared: &Shared,
    rs: &ReactorShared,
    cfg: &ReactorConfig,
) {
    let mut chunk = [0u8; 16 * 1024];
    let mut got_bytes = false;
    loop {
        match entry.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer EOF — possibly a half-close after one or more
                // complete requests (write-then-shutdown(SHUT_WR) is
                // legal HTTP/1.1). Record it on the state machine
                // *before* parsing below, so buffered complete requests
                // are still served and only then the connection drains.
                entry.conn.input_closed();
                break;
            }
            Ok(n) => {
                entry.conn.push_bytes(&chunk[..n]);
                got_bytes = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                entry.dead = true;
                return;
            }
        }
    }
    if got_bytes {
        entry.last_activity_tick = now_tick;
    }
    drive(entry, token, now_tick, shared, rs, cfg, |conn, admit| {
        conn.pump(cfg.max_pipeline, admit)
    });
}

/// Run one step of the connection's policy (`Conn::pump` or
/// `Conn::deliver`) with admission into the bounded job queue, then
/// record what it did and restart the header timer if a partial request
/// is buffered.
// privim-lint: allow(wall-clock, reason = "arrival timestamps: each admitted request is stamped for deadline shedding and the latency histogram, never for response payloads")
fn drive(
    entry: &mut ConnEntry,
    token: u64,
    now_tick: u64,
    shared: &Shared,
    rs: &ReactorShared,
    cfg: &ReactorConfig,
    step: impl FnOnce(&mut Conn, &mut dyn FnMut(ParsedJob) -> bool) -> Pumped,
) {
    let mut arrival = None;
    let mut admit = |job: ParsedJob| {
        let mut q = lock(&rs.jobs);
        if q.len() >= cfg.queue_cap {
            return false;
        }
        q.push_back(Job {
            token,
            seq: job.seq,
            request: job.request,
            keep_alive: job.keep_alive,
            arrival: *arrival.get_or_insert_with(Instant::now),
        });
        shared.metrics.queue_push();
        drop(q);
        rs.jobs_ready.notify_one();
        true
    };
    let pumped = step(&mut entry.conn, &mut admit);
    if let Some(depth) = pumped.depth {
        shared.metrics.observe_pipeline_depth(depth);
    }
    for _ in 0..pumped.reuses {
        shared.metrics.keepalive_reuse();
    }
    for _ in 0..pumped.shed {
        shared.metrics.shed();
        shared.metrics.observe_status(503);
    }
    if let Some(status) = pumped.refused {
        shared.metrics.observe_status(status);
    }
    entry.partial_since_tick = if entry.conn.partial_bytes() > 0 {
        entry.partial_since_tick.or(Some(now_tick))
    } else {
        None
    };
}

/// Drain the write buffer into the socket until it empties or the socket
/// stops accepting bytes.
fn write_ready(entry: &mut ConnEntry, now_tick: u64) {
    loop {
        let pending = entry.conn.writable();
        if pending.is_empty() {
            return;
        }
        match entry.stream.write(pending) {
            Ok(0) => {
                entry.dead = true;
                return;
            }
            Ok(n) => {
                entry.conn.advance_write(n);
                entry.last_activity_tick = now_tick;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                entry.dead = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_at_the_scheduled_tick() {
        let mut w = TimerWheel::new(8);
        w.schedule(7, 3);
        let mut due = Vec::new();
        w.advance(2, &mut due);
        assert!(due.is_empty());
        w.advance(3, &mut due);
        assert_eq!(due, vec![7]);
        assert_eq!(w.now, 3);
    }

    #[test]
    fn wheel_clamps_past_and_far_deadlines() {
        let mut w = TimerWheel::new(8);
        // A deadline already in the past still fires on the next tick,
        // never the current one.
        w.schedule(1, 0);
        let mut due = Vec::new();
        w.advance(1, &mut due);
        assert_eq!(due, vec![1]);
        // A deadline beyond the horizon is clamped to horizon ticks out;
        // the reactor's lazy re-check re-arms it from there.
        due.clear();
        w.schedule(2, 1_000_000);
        w.advance(1 + 7, &mut due);
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn wheel_wraps_around_its_slots() {
        let mut w = TimerWheel::new(4);
        let mut due = Vec::new();
        for round in 0..5u64 {
            let at = (round + 1) * 3;
            w.schedule(round, at);
            w.advance(at, &mut due);
            assert_eq!(due, vec![round], "round {round}");
            due.clear();
        }
    }

    #[test]
    fn tick_conversion_rounds_up_and_never_hits_zero() {
        assert_eq!(ticks(Duration::from_millis(1)), 1);
        assert_eq!(ticks(Duration::from_millis(100)), 1);
        assert_eq!(ticks(Duration::from_millis(101)), 2);
        assert_eq!(ticks(Duration::from_secs(30)), 300);
        assert_eq!(ticks(Duration::ZERO), 1);
    }
}
