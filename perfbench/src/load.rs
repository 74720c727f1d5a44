//! Load generators: closed loops (a client sends its next request when
//! the previous reply arrived) and an open loop (requests leave on a
//! fixed schedule whatever the server does, and each is timed from
//! when it was due). The open loop may run beside a publisher
//! connection that sends `swap` commands at a fixed cadence. At most
//! two load threads and two connections run at once.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use privtree_runtime::readiness::{self, PollEntry};

use crate::net::{Conn, Failure, Failures, Proto, Request};

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Requests sent (reads and publishes).
    pub attempted: u64,
    pub failures: Failures,
    /// When the measured window opened.
    pub start: Option<Instant>,
    /// Closed loop: when each correct reply arrived, and its queries.
    pub completions: Vec<(Instant, usize)>,
    /// Per-read latency, microseconds.
    pub latency_us: Vec<f64>,
    /// How late each open-loop send left, microseconds.
    pub send_lag_us: Vec<f64>,
    /// Per-publish latency (`swap` sent to `ok` read), milliseconds.
    pub publish_ms: Vec<f64>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failures.add(&other.failures);
        self.completions.extend(other.completions);
        self.latency_us.extend(other.latency_us);
        self.send_lag_us.extend(other.send_lag_us);
        self.publish_ms.extend(other.publish_ms);
    }
}

/// Queries/s over each run of `per_window` consecutive replies of a
/// closed-loop phase (all connections merged in time order): the
/// window's queries over the time since the previous window closed.
pub fn windowed_qps(phase: &Phase, per_window: usize) -> Vec<f64> {
    let Some(mut opened) = phase.start else {
        return Vec::new();
    };
    let mut done = phase.completions.clone();
    done.sort_by_key(|&(at, _)| at);
    // a phase too short for one full window counts as one window
    done.chunks_exact(per_window.min(done.len()).max(1))
        .map(|w| {
            let closed = w[w.len() - 1].0;
            let queries: usize = w.iter().map(|&(_, q)| q).sum();
            let secs = (closed - opened).as_secs_f64();
            opened = closed;
            queries as f64 / secs.max(1e-9)
        })
        .collect()
}

/// A connection sending `swap` commands every `period`.
pub struct Publisher<'a> {
    pub swaps: &'a [Vec<u8>],
    pub period: Duration,
}

fn publish_ok(reply: &[u8]) -> Result<(), Failure> {
    if reply.starts_with(b"ok ") {
        Ok(())
    } else {
        Err(Failure::Err)
    }
}

/// Lower this thread's timer slack to 1 ns so open-loop sleeps wake on
/// time instead of up to 50 µs late.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK only changes this thread's slack value
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Send `reqs` in turn on one connection until `end`, each after the
/// previous reply; `offset` staggers connections through the pool.
fn closed_client(
    addr: SocketAddr,
    proto: Proto,
    reqs: &[Request],
    offset: usize,
    warmup: Duration,
    start: &Barrier,
    measure: Duration,
) -> (Phase, Instant) {
    let mut phase = Phase::default();
    let mut conn = match Conn::connect(addr, proto) {
        Ok(c) => c,
        Err(_) => {
            phase.attempted += 1;
            phase.failures.record(Failure::Refused);
            start.wait();
            return (phase, Instant::now());
        }
    };
    let mut i = offset;
    let warm_end = Instant::now() + warmup;
    let mut broken = false;
    while Instant::now() < warm_end {
        let req = &reqs[i % reqs.len()];
        i += 1;
        if conn.call(&req.bytes, req.lines).is_err() {
            broken = true;
            break;
        }
    }
    start.wait();
    let t0 = Instant::now();
    let end = t0 + measure;
    let mut last = t0;
    if broken {
        phase.attempted += 1;
        phase.failures.record(Failure::Refused);
        return (phase, t0);
    }
    while last < end {
        let req = &reqs[i % reqs.len()];
        i += 1;
        phase.attempted += 1;
        let sent = Instant::now();
        match conn.call(&req.bytes, req.lines) {
            Ok(reply) => {
                last = Instant::now();
                match req.check(proto, &reply) {
                    Ok(()) => {
                        phase.completions.push((last, req.queries));
                        phase.latency_us.push((last - sent).as_secs_f64() * 1e6);
                    }
                    Err(f) => phase.failures.record(f),
                }
            }
            Err(_) => {
                phase.failures.record(Failure::Refused);
                break;
            }
        }
    }
    (phase, t0)
}

/// `conns` closed-loop clients for `measure` after `warmup`.
pub fn closed_loop(
    addr: SocketAddr,
    proto: Proto,
    reqs: &[Request],
    conns: usize,
    warmup: Duration,
    measure: Duration,
) -> Phase {
    assert!(conns <= 2, "two load threads at most");
    let start = Barrier::new(conns);
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..conns)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    closed_client(
                        addr,
                        proto,
                        reqs,
                        c * reqs.len() / conns,
                        warmup,
                        start,
                        measure,
                    )
                })
            })
            .collect();
        for client in clients {
            let (phase, first) = client.join().expect("closed-loop client panicked");
            total.merge(phase);
            total.start = Some(total.start.map_or(first, |s| s.min(first)));
        }
    });
    total
}

/// Swaps alone on one connection, back to back, until `measure` ends
/// (at least one).
pub fn publish_loop(addr: SocketAddr, swaps: &[Vec<u8>], measure: Duration) -> Phase {
    let mut phase = Phase::default();
    let mut conn = match Conn::connect(addr, Proto::Text) {
        Ok(c) => c,
        Err(_) => {
            phase.attempted += 1;
            phase.failures.record(Failure::Refused);
            return phase;
        }
    };
    let t0 = Instant::now();
    let mut j = 0;
    while j == 0 || t0.elapsed() < measure {
        phase.attempted += 1;
        let sent = Instant::now();
        match conn.call(&swaps[j % swaps.len()], 1) {
            Ok(reply) => match publish_ok(&reply) {
                Ok(()) => phase.publish_ms.push(sent.elapsed().as_secs_f64() * 1e3),
                Err(f) => phase.failures.record(f),
            },
            Err(_) => {
                phase.failures.record(Failure::Refused);
                break;
            }
        }
        j += 1;
    }
    phase
}

/// Open loop: `rate` requests/s on one connection for `measure`, each
/// timed from its scheduled send to its last reply byte, beside an
/// optional publisher on a second connection. One thread sends both
/// schedules; this thread reads both connections.
pub fn open_loop(
    addr: SocketAddr,
    proto: Proto,
    reqs: &[Request],
    rate: f64,
    measure: Duration,
    publisher: Option<&Publisher>,
) -> Phase {
    let mut phase = Phase::default();
    let connect = |proto| Conn::connect(addr, proto);
    let (mut reader, mut pub_conn) = match (
        connect(proto),
        publisher.map(|_| connect(Proto::Text)).transpose(),
    ) {
        (Ok(r), Ok(p)) => (r, p),
        _ => {
            phase.attempted += 1;
            phase.failures.record(Failure::Refused);
            return phase;
        }
    };
    // warm the connection and the server's lazy state
    for req in reqs.iter().take(64) {
        if reader.call(&req.bytes, req.lines).is_err() {
            phase.attempted += 1;
            phase.failures.record(Failure::Refused);
            return phase;
        }
    }
    let n = (rate * measure.as_secs_f64()).round() as usize;
    let period = Duration::from_secs_f64(1.0 / rate);
    let swaps = publisher
        .map(|p| (measure.as_secs_f64() / p.period.as_secs_f64()).floor() as usize)
        .unwrap_or(0);
    let (Ok(mut read_tx), Ok(mut pub_tx)) = (
        reader.writer(),
        pub_conn.as_ref().map(|c| c.writer()).transpose(),
    ) else {
        phase.attempted += 1;
        phase.failures.record(Failure::Refused);
        return phase;
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| t0 + period.mul_f64(k as f64);
    let swap_due = |j: usize| {
        t0 + publisher
            .expect("swaps imply a publisher")
            .period
            .mul_f64(j as f64 + 0.5)
    };
    let swap_sent: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::with_capacity(swaps)));
    phase.attempted = (n + swaps) as u64;
    std::thread::scope(|s| {
        let sent_log = Arc::clone(&swap_sent);
        let sender = s.spawn(move || {
            use std::io::Write;
            tight_timer_slack();
            let mut lag = Vec::with_capacity(n);
            let (mut k, mut j) = (0, 0);
            while k < n || j < swaps {
                let read_next = j >= swaps || (k < n && due(k) <= swap_due(j));
                if read_next {
                    let at = due(k);
                    sleep_until(at);
                    lag.push(at.elapsed().as_secs_f64() * 1e6);
                    if read_tx.write_all(&reqs[k % reqs.len()].bytes).is_err() {
                        break;
                    }
                    k += 1;
                } else {
                    let p = publisher.expect("swaps imply a publisher");
                    sleep_until(swap_due(j));
                    sent_log
                        .lock()
                        .expect("the receiver never panics holding the log")
                        .push(Instant::now());
                    let tx = pub_tx.as_mut().expect("swaps imply a publisher connection");
                    if tx.write_all(&p.swaps[j % p.swaps.len()]).is_err() {
                        break;
                    }
                    j += 1;
                }
            }
            lag
        });

        let deadline = t0 + measure + Duration::from_secs(3);
        let (mut got, mut published) = (0usize, 0usize);
        let mut dead = [false, pub_conn.is_none()];
        'recv: while (got < n && !dead[0]) || (published < swaps && !dead[1]) {
            loop {
                match reader.take(reqs[got % reqs.len()].lines) {
                    Ok(Some(reply)) => {
                        let at = Instant::now();
                        let req = &reqs[got % reqs.len()];
                        match req.check(proto, &reply) {
                            Ok(()) => {
                                phase.latency_us.push((at - due(got)).as_secs_f64() * 1e6);
                            }
                            Err(f) => phase.failures.record(f),
                        }
                        got += 1;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        dead[0] = true;
                        break;
                    }
                }
            }
            if let Some(conn) = pub_conn.as_mut() {
                loop {
                    match conn.take(1) {
                        Ok(Some(reply)) => {
                            let at = Instant::now();
                            let sent = swap_sent
                                .lock()
                                .expect("the sender never panics holding the log")[published];
                            match publish_ok(&reply) {
                                Ok(()) => phase.publish_ms.push((at - sent).as_secs_f64() * 1e3),
                                Err(f) => phase.failures.record(f),
                            }
                            published += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            dead[1] = true;
                            break;
                        }
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break 'recv;
            }
            let mut entries = vec![PollEntry::read(reader.fd().into())];
            if let Some(conn) = pub_conn.as_ref() {
                entries.push(PollEntry::read(conn.fd().into()));
            }
            readiness::wait(
                &mut entries,
                (deadline - now).min(Duration::from_millis(50)),
            );
            if entries[0].readable && !dead[0] && reader.fill().is_err() {
                dead[0] = true;
            }
            if entries.get(1).is_some_and(|e| e.readable) && !dead[1] {
                if let Some(conn) = pub_conn.as_mut() {
                    if conn.fill().is_err() {
                        dead[1] = true;
                    }
                }
            }
        }
        // shut both sockets so a sender blocked on a full buffer wakes
        reader.shutdown();
        if let Some(conn) = pub_conn.as_ref() {
            conn.shutdown();
        }
        phase.send_lag_us = sender.join().expect("open-loop sender panicked");
        let unanswered = (n - got) + (swaps - published);
        let lost = if dead[0] || dead[1] {
            Failure::Refused
        } else {
            Failure::Timeout
        };
        for _ in 0..unanswered {
            phase.failures.record(lost);
        }
    });
    phase
}
