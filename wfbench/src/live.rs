//! The closed-loop load: one thread and one keep-alive connection per
//! client, each sending its next request only after the previous answer
//! arrived, for a fixed window.

use crate::client::Conn;
use crate::workload::{ClientPlan, Op};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Untimed requests each client sends before the window opens.
pub const WARMUP_REQUESTS: usize = 24;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Repetition the request belongs to.
    pub rep: u16,
    /// Client that sent it.
    pub client: u16,
    /// Index into the client's request sequence.
    pub index: u32,
    /// The request's op.
    pub op: Op,
    /// Whether it was sent inside the timed window.
    pub timed: bool,
    /// Latency from write to complete response, in nanoseconds.
    pub ns: u64,
    /// When the response (or the failure) arrived.
    pub done: Instant,
    /// HTTP status, or 0 for a transport failure.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Everything one window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Every request sent (warm-up and timed), per client in send order.
    pub samples: Vec<Sample>,
    /// Clients that ran out of pre-generated writes before the window ended.
    pub exhausted: usize,
}

/// Runs every client against `addr`: [`WARMUP_REQUESTS`] untimed requests,
/// then requests until `window` has elapsed.  Writers start their sequence
/// from the top (each repetition boots a fresh store); readers start
/// repetition `rep` of `reps` that share of the way into theirs, so the
/// repetitions cover different requests.
pub fn run(
    addr: SocketAddr,
    clients: &[ClientPlan],
    rep: u16,
    reps: usize,
    window: Duration,
) -> Window {
    let barrier = Barrier::new(clients.len());
    let results: Vec<(Vec<Sample>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let barrier = &barrier;
                let start = if plan.cycles { rep as usize * plan.requests.len() / reps } else { 0 };
                scope.spawn(move || client_loop(addr, plan, start, rep, c as u16, barrier, window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let exhausted = results.iter().filter(|r| r.1).count();
    Window { samples: results.into_iter().flat_map(|r| r.0).collect(), exhausted }
}

fn client_loop(
    addr: SocketAddr,
    plan: &ClientPlan,
    start: usize,
    rep: u16,
    client: u16,
    barrier: &Barrier,
    window: Duration,
) -> (Vec<Sample>, bool) {
    let expected = (window.as_secs_f64() * 4000.0) as usize;
    let mut samples = Vec::with_capacity(expected.min(1 << 20));
    let mut conn = Conn::connect(addr).ok();
    let mut next = start;
    let mut exhausted = false;
    let mut send = |conn: &mut Option<Conn>, timed: bool, samples: &mut Vec<Sample>| -> bool {
        let len = plan.requests.len();
        if next >= len && !plan.cycles {
            exhausted = true;
            return false;
        }
        let index = next % len;
        next += 1;
        let req = &plan.requests[index];
        let Some(c) = conn.as_mut() else {
            samples.push(failed(rep, client, index, req.op, timed));
            return false;
        };
        let started = Instant::now();
        let outcome = c.send(&req.wire);
        let done = Instant::now();
        let ns = done.duration_since(started).as_nanos() as u64;
        match outcome {
            Ok((status, body)) => {
                samples.push(Sample {
                    rep,
                    client,
                    index: index as u32,
                    op: req.op,
                    timed,
                    ns,
                    done,
                    status,
                    body,
                });
                true
            }
            Err(_) => {
                // The connection's framing is lost; stop this client.
                *conn = None;
                samples.push(failed(rep, client, index, req.op, timed));
                false
            }
        }
    };
    for _ in 0..WARMUP_REQUESTS {
        if !send(&mut conn, false, &mut samples) {
            break;
        }
    }
    barrier.wait();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        if !send(&mut conn, true, &mut samples) {
            break;
        }
    }
    (samples, exhausted)
}

fn failed(rep: u16, client: u16, index: usize, op: Op, timed: bool) -> Sample {
    Sample {
        rep,
        client,
        index: index as u32,
        op,
        timed,
        ns: 0,
        done: Instant::now(),
        status: 0,
        body: String::new(),
    }
}
