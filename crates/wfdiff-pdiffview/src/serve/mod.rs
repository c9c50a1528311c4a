//! A networked front-end for the diff engine: a dependency-free, evented
//! HTTP/1.1 server over `std::net`, fronting one [`DiffService`] (and
//! through it one [`WorkflowStore`] and its durable directory).
//!
//! PDiffView is presented as an interactive *system* users point at a
//! provenance store; this module is the network layer — a process can load
//! a store directory, warm the caches and serve diff queries to remote
//! clients (see the `wfdiff_serve` binary).
//!
//! # Architecture: readiness-driven workers
//!
//! [`ServeConfig::threads`] **workers** each block in `epoll_wait` on one
//! shared epoll instance (Linux only).  The listener and every connection
//! are non-blocking and registered one-shot, so the worker an event wakes is
//! that socket's only owner until it re-arms it.  That worker reads, parses
//! incrementally ([`http::parse_request`]), runs the handler under
//! `catch_unwind`, renders and writes the response, serves any pipelined
//! requests already buffered, and re-arms the socket — for input, or for
//! output if the write would block.  A request crosses no thread hand-off
//! and nothing polls: an idle server sleeps in the kernel.
//!
//! *Connections do not pin workers*: a thousand idle keep-alive
//! connections (or a client dribbling a request one byte a second) cost a
//! table slot and an epoll registration each, while every worker stays
//! available for sockets that have data.  The concurrency bound is
//! [`ServeConfig::max_connections`] open sockets and
//! [`ServeConfig::threads`] requests executing at once; ready sockets beyond
//! that wait in the kernel's ready list, further connections are answered
//! `503`.
//!
//! # Endpoints
//!
//! | method & path            | body | response |
//! |--------------------------|------|----------|
//! | `GET /healthz`           | —    | store/pool summary |
//! | `GET /specs`             | —    | specification listing, sorted by name |
//! | `GET /specs/{name}/runs` | —    | run names of one specification |
//! | `POST /runs`             | [`api::InsertRunRequest`] | insert (and durably append) a run |
//! | `POST /runs/stream`      | [`api::StreamEventsRequest`] | append node-lifecycle events to an in-flight stream; live drift verdict, optional finalize |
//! | `GET /runs/{spec}/{stream}/drift[?k[&seed]]` | — | drift verdict of an in-flight stream vs the cluster medoids |
//! | `DELETE /runs/{spec}/{stream}/stream` | — | drop a stuck in-flight stream (durable closure marker) |
//! | `GET /diff?spec&a&b`     | —    | one cache-backed edit distance |
//! | `POST /diff/batch`       | [`api::BatchDiffRequest`] | a pair list fanned onto the diff pool |
//! | `GET /cluster?spec&a&b[&separator]` | — | per-composite-module change summary |
//! | `GET /cluster?spec&algo=kmedoids&k[&seed]` | — | incremental k-medoids run clustering (medoids + silhouette) |
//! | `GET /similar?spec&run[&k][&approx]` | — | the `k` stored runs nearest to `run`, exact distances, through the metric index |
//! | `GET /metrics`           | —    | Prometheus text exposition ([`metrics`]) |
//!
//! All bodies are JSON (except `/metrics`, which is Prometheus text); every
//! store/diff/persist failure maps to a structured JSON error with a
//! 4xx/5xx status (see [`api`]) — nothing panics across the connection
//! boundary (handlers additionally run under `catch_unwind`, so even an
//! engine bug answers `500` instead of wedging a worker).
//!
//! # Limits
//!
//! * request head (request line + headers): [`http::MAX_HEAD_BYTES`],
//! * request body: [`ServeConfig::max_body_bytes`] (default
//!   [`DEFAULT_MAX_BODY_BYTES`]), enforced from `Content-Length` before the
//!   body has arrived — oversized requests get `413`,
//! * batch size: [`handlers::MAX_BATCH_PAIRS`] pairs per `POST /diff/batch`,
//! * open connections: [`ServeConfig::max_connections`]; beyond it new
//!   connections are answered `503` and closed without blocking any worker,
//! * per-connection idle timeout: [`ServeConfig::read_timeout`]; a
//!   connection with no complete request and no response in flight is closed
//!   once it has been silent that long (checked every eighth of the timeout,
//!   at most every second).
//!
//! [`DiffService`]: crate::service::DiffService
//! [`WorkflowStore`]: crate::store::WorkflowStore

pub mod api;
mod epoll;
pub mod handlers;
pub mod http;
pub mod metrics;

pub use api::ApiError;
pub use handlers::AppState;
pub use metrics::ServeMetrics;

use epoll::{Epoll, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use metrics::Endpoint;
use metrics::ServerCounter::{
    BytesRead, BytesWritten, ConnectionsClosed, ConnectionsOpened, ConnectionsRejected,
};
use metrics::ServerGauge::{ConnectionsActive, RequestsInFlight, Workers, WorkersBusy};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default request-body ceiling: 1 MiB.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// Default per-connection idle timeout.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default ceiling on concurrently open connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// How long a shutting-down server waits for in-flight requests to finish
/// before closing their connections anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Epoll token of the listener.  Connection tokens carry a non-zero serial
/// in their high 32 bits, so they never equal this or [`WAKE`].
const LISTENER: u64 = 0;

/// Epoll token of the shutdown wake socket.
const WAKE: u64 = 1;

/// Bytes requested per socket read.
const READ_CHUNK: usize = 16 * 1024;

/// Server configuration; `ServeConfig::default()` binds an ephemeral
/// loopback port with 4 workers and no persistence.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port; read the
    /// actual one from [`Server::local_addr`]).
    pub addr: String,
    /// Worker-pool size — the bound on concurrently *executing* requests
    /// (idle connections are free; see the module docs).  Clamped to at
    /// least 1.
    pub threads: usize,
    /// Request-body ceiling in bytes; larger bodies are answered with `413`.
    pub max_body_bytes: usize,
    /// Idle timeout per connection: a connection that has no request in
    /// flight and has been silent this long is closed.
    pub read_timeout: Duration,
    /// Ceiling on concurrently open connections; beyond it new connections
    /// are answered `503` and closed.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// A bound (but not yet serving) diff server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured address over `state`: its service, and its
    /// store directory, if any, to whose write-ahead log the writes (`POST
    /// /runs`, stream batches, index checkpoints) are appended.  The
    /// listener is live after `bind` returns (connections queue in the
    /// backlog); call [`Server::start`] to begin servicing them.
    pub fn bind(state: AppState, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(state);
        Ok(Server { listener, state, config })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the workers and returns a handle that can wait for or shut
    /// down the server.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(self.listener.as_fd(), EPOLLIN | EPOLLONESHOT, LISTENER)?;
        // Level-triggered and never drained: once shutdown writes a byte,
        // every `epoll_wait` on the instance returns, waking every worker.
        let (wake, wake_rx) = UnixStream::pair()?;
        epoll.add(wake_rx.as_fd(), EPOLLIN, WAKE)?;
        let read_timeout = self.config.read_timeout;
        let shared = Arc::new(Shared {
            epoll,
            listener: self.listener,
            _wake_rx: wake_rx,
            table: Mutex::new(Table::default()),
            shutdown: AtomicBool::new(false),
            last_sweep: Mutex::new(Instant::now()),
            sweep_every: (read_timeout / 8).clamp(Duration::from_millis(1), Duration::from_secs(1)),
            read_timeout,
            max_body: self.config.max_body_bytes,
            max_conns: self.config.max_connections.max(1),
        });
        let workers = self.config.threads.max(1);
        self.state.metrics().gauge(Workers).set(workers as i64);

        // Built before spawning so that a failed spawn drops the handle,
        // which stops and joins the workers already running.
        let mut handle = ServerHandle { addr, shared, wake, threads: Vec::with_capacity(workers) };
        for i in 0..workers {
            let shared = Arc::clone(&handle.shared);
            let state = Arc::clone(&self.state);
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("wfdiff-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &state))?,
            );
        }
        Ok(handle)
    }
}

/// A running server: joinable, shut-downable, addressable.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Write end of the wake socket; the workers' epoll instance watches
    /// its read end.
    wake: UnixStream,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server exits (for a server that runs until the
    /// process is killed).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops accepting, lets in-flight requests finish (bounded by a grace
    /// period), closes every connection and joins all threads.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Sets the flag, then makes the wake socket readable so that every
    /// worker's `epoll_wait` returns.
    fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1]);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best effort: a dropped (not joined) handle still stops the
        // threads; join errors are irrelevant during unwinding.
        if !self.threads.is_empty() {
            self.request_shutdown();
            for t in self.threads.drain(..) {
                let _ = t.join();
            }
        }
    }
}

/// State every worker shares: the epoll instance, the listener and the
/// connection table.
struct Shared {
    epoll: Epoll,
    listener: TcpListener,
    /// Read end of the wake socket; held open because it is registered.
    _wake_rx: UnixStream,
    table: Mutex<Table>,
    shutdown: AtomicBool,
    /// When the last idle sweep ran.
    last_sweep: Mutex<Instant>,
    /// Idle-sweep interval, derived from `read_timeout`; also the longest a
    /// worker blocks, so an idle server still sweeps.
    sweep_every: Duration,
    read_timeout: Duration,
    max_body: usize,
    max_conns: usize,
}

/// The connection table.  A slot holds its connection while it is parked
/// (registered and armed); it is empty while vacant and while the worker an
/// event woke owns the connection.
#[derive(Default)]
struct Table {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    /// Bumped per admitted connection; the high half of its token.
    serial: u32,
}

/// The slot index a connection token names (its low 32 bits).
fn slot_of(token: u64) -> usize {
    (token & u64::from(u32::MAX)) as usize
}

impl Table {
    /// Reserves an empty slot for a new connection and returns it with the
    /// connection's token.
    fn claim(&mut self) -> (usize, u64) {
        self.serial = self.serial.wrapping_add(1).max(1);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.open += 1;
        (slot, u64::from(self.serial) << 32 | slot as u64)
    }

    /// Takes ownership of the parked connection `token` names.  `None` for
    /// a stale token: an event for a connection since closed, whose slot
    /// may already hold a newer one.
    fn take(&mut self, token: u64) -> Option<Conn> {
        let slot = self.slots.get_mut(slot_of(token))?;
        if slot.as_ref()?.token != token {
            return None;
        }
        slot.take()
    }

    /// Frees the (empty) slot of a connection its owner has closed.
    fn release(&mut self, slot: usize) {
        self.free.push(slot);
        self.open -= 1;
    }

    /// Removes every parked connection `pick` selects, freeing its slot.
    fn remove_parked(&mut self, mut pick: impl FnMut(&Conn) -> bool) -> Vec<Conn> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(&mut pick) {
                out.extend(slot.take());
                self.free.push(i);
                self.open -= 1;
            }
        }
        out
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    /// `serial << 32 | slot`: an event whose token mismatches is for an
    /// earlier connection that occupied the same slot, and is dropped.
    token: u64,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Response bytes not yet written.
    write_buf: Vec<u8>,
    write_pos: usize,
    close_after_write: bool,
    /// The client half-closed its sending side; buffered requests are still
    /// served (their responses can be written), then the connection closes.
    eof: bool,
    /// When the connection was last parked; the idle timeout counts from
    /// here.
    last_activity: Instant,
    /// When `epoll_wait` returned the event whose read delivered the newest
    /// buffered bytes — the start of a request's measured latency.
    arrived: Instant,
}

impl Conn {
    fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// What a connection waits for when its worker lets go of it.
enum Next {
    Read,
    Write,
    Close,
}

/// One worker: wait for a ready socket, serve it, re-arm it; run the idle
/// sweep when due; on shutdown, close what is parked and exit.
fn worker_loop(shared: &Shared, state: &AppState) {
    let metrics = state.metrics();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        // The instance is ours and valid, so a failing wait means the
        // process is broken; exiting beats spinning.
        let Ok(ready) = shared.epoll.wait_one(shared.sweep_every) else { return };
        let woke = Instant::now();
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.close_parked_for_shutdown(metrics);
            return;
        }
        match ready {
            Some(LISTENER) => shared.accept_pending(metrics, woke),
            Some(WAKE) | None => {}
            Some(token) => shared.serve_event(token, state, &mut chunk, woke),
        }
        shared.sweep_if_due(woke, metrics);
    }
}

impl Shared {
    fn lock_table(&self) -> MutexGuard<'_, Table> {
        // Every table update completes under one lock hold, so a poisoned
        // table is still consistent.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accepts every pending connection, then re-arms the listener.
    fn accept_pending(&self, metrics: &ServeMetrics, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    metrics.counter(ConnectionsOpened).inc();
                    self.admit(stream, metrics, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) => {}
                // A hard failure (e.g. descriptor exhaustion) leaves the
                // listener disarmed, instead of waking a worker in a loop,
                // until the next idle sweep re-arms it.
                Err(_) => return,
            }
        }
        self.rearm_listener();
    }

    fn rearm_listener(&self) {
        let _ = self.epoll.rearm(self.listener.as_fd(), EPOLLIN | EPOLLONESHOT, LISTENER);
    }

    /// Registers a new connection, or answers `503` and closes it when the
    /// table is full.
    fn admit(&self, stream: TcpStream, metrics: &ServeMetrics, now: Instant) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            metrics.counter(ConnectionsClosed).inc();
            return;
        }
        let mut table = self.lock_table();
        if table.open >= self.max_conns {
            drop(table);
            metrics.counter(ConnectionsRejected).inc();
            metrics.counter(ConnectionsClosed).inc();
            let e = ApiError::new(503, "overloaded", "connection table is full");
            // A fresh socket's send buffer holds the whole answer.
            let _ =
                (&stream).write(&http::render_response(503, "application/json", &e.body(), false));
            close_socket(stream);
            return;
        }
        let (slot, token) = table.claim();
        let conn = Conn {
            stream,
            token,
            buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_write: false,
            eof: false,
            last_activity: now,
            arrived: now,
        };
        // Registered under the table lock: the first event may reach
        // another worker at once, and it must find the connection parked.
        match self.epoll.add(conn.stream.as_fd(), EPOLLIN | EPOLLONESHOT, token) {
            Ok(()) => {
                table.slots[slot] = Some(conn);
                metrics.gauge(ConnectionsActive).inc();
            }
            Err(_) => {
                table.release(slot);
                metrics.counter(ConnectionsClosed).inc();
            }
        }
    }

    /// Serves the connection an event woke, then re-arms or closes it.
    fn serve_event(&self, token: u64, state: &AppState, chunk: &mut [u8], woke: Instant) {
        let Some(mut conn) = self.lock_table().take(token) else { return };
        let metrics = state.metrics();
        let interest = match self.drive(&mut conn, state, chunk, woke) {
            Next::Read => EPOLLIN,
            Next::Write => EPOLLOUT,
            Next::Close => {
                self.lock_table().release(slot_of(token));
                close_conn(conn, metrics);
                return;
            }
        };
        conn.last_activity = Instant::now();
        let mut table = self.lock_table();
        // Re-armed and parked under one lock hold: the event the re-arm may
        // raise at once must find the connection parked.
        match self.epoll.rearm(conn.stream.as_fd(), interest | EPOLLONESHOT, token) {
            Ok(()) => table.slots[slot_of(token)] = Some(conn),
            Err(_) => {
                table.release(slot_of(token));
                drop(table);
                close_conn(conn, metrics);
            }
        }
    }

    /// Writes the pending response, then serves every complete request in
    /// the buffer, reading more while the next one is incomplete.  Returns
    /// once the connection must wait for the socket or be closed.
    fn drive(&self, conn: &mut Conn, state: &AppState, chunk: &mut [u8], woke: Instant) -> Next {
        let metrics = state.metrics();
        // Whether a read found the socket empty this event.  The re-arm is
        // level-triggered, so bytes that arrive after that raise an event
        // at once.
        let mut drained = false;
        loop {
            while conn.has_unwritten() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => return Next::Close,
                    Ok(n) => {
                        conn.write_pos += n;
                        metrics.counter(BytesWritten).add(n as u64);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Next::Write,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return Next::Close,
                }
            }
            if conn.close_after_write {
                return Next::Close;
            }
            conn.write_buf.clear();
            conn.write_pos = 0;

            // Pipelined requests already buffered raise no readiness event:
            // serve them before waiting for more input.
            match http::parse_request(&conn.buf, self.max_body) {
                Ok(http::ParseOutcome::Complete { request, consumed }) => {
                    conn.buf.drain(..consumed);
                    self.respond(conn, &request, state);
                    continue;
                }
                Ok(http::ParseOutcome::Incomplete) => {}
                Err(http::ParseError { status, message }) => {
                    // Framing is unreliable after a parse failure: answer
                    // and close.  No path was classified, so the request
                    // counts against `other`.
                    let e = ApiError::new(status, "malformed_request", message);
                    conn.write_buf =
                        http::render_response(status, "application/json", &e.body(), false);
                    conn.close_after_write = true;
                    conn.buf.clear();
                    metrics.observe_request(Endpoint::Other, status, conn.arrived.elapsed());
                    continue;
                }
            }
            // After EOF, leftover bytes that never parsed into a request
            // can never complete.
            if conn.eof {
                return Next::Close;
            }
            if drained {
                return Next::Read;
            }
            // One read per parse: the buffer never outgrows what the
            // parser may still call incomplete (its head and body limits)
            // by more than one chunk.
            match conn.stream.read(chunk) {
                Ok(0) => conn.eof = true,
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    metrics.counter(BytesRead).add(n as u64);
                    conn.arrived = woke;
                    drained = n < chunk.len();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => drained = true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Next::Close,
            }
        }
    }

    /// Runs one parsed request through [`handlers::dispatch`] (which
    /// answers a panicking handler with `500`) and queues the rendered
    /// response on the connection.
    fn respond(&self, conn: &mut Conn, request: &http::Request, state: &AppState) {
        let metrics = state.metrics();
        metrics.gauge(RequestsInFlight).inc();
        metrics.gauge(WorkersBusy).inc();
        let response = handlers::dispatch(state, request);
        metrics.gauge(WorkersBusy).dec();
        let keep_alive = request.keep_alive && !self.shutdown.load(Ordering::SeqCst);
        conn.write_buf = http::render_response(
            response.status,
            response.content_type,
            &response.body,
            keep_alive,
        );
        conn.close_after_write = !keep_alive;
        metrics.observe_request(response.endpoint, response.status, conn.arrived.elapsed());
        metrics.gauge(RequestsInFlight).dec();
    }

    /// Closes parked connections that have been idle past the read timeout
    /// — at most once per sweep interval, on whichever worker finds the
    /// sweep due.  Connections a worker owns are not in the table's parked
    /// set and are skipped, as are those with a response still unwritten.
    fn sweep_if_due(&self, now: Instant, metrics: &ServeMetrics) {
        {
            // Busy means another worker is sweeping.  The guarded section
            // cannot panic, so the lock is never poisoned.
            let Ok(mut last) = self.last_sweep.try_lock() else { return };
            if now.saturating_duration_since(*last) < self.sweep_every {
                return;
            }
            *last = now;
        }
        // Harmless while armed; recovers a listener a failed accept left
        // disarmed.
        self.rearm_listener();
        let expired = self.lock_table().remove_parked(|c| {
            !c.has_unwritten() && now.saturating_duration_since(c.last_activity) > self.read_timeout
        });
        for conn in expired {
            close_conn(conn, metrics);
        }
    }

    /// Shutdown: closes every parked connection, first flushing (within the
    /// grace period) any response still unwritten.  Connections a worker
    /// owns are closed by that worker, which re-parks them only to come back
    /// here.
    fn close_parked_for_shutdown(&self, metrics: &ServeMetrics) {
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for mut conn in self.lock_table().remove_parked(|_| true) {
            let left = deadline.saturating_duration_since(Instant::now());
            if conn.has_unwritten()
                && !left.is_zero()
                && conn.stream.set_nonblocking(false).is_ok()
                && conn.stream.set_write_timeout(Some(left)).is_ok()
            {
                let _ = conn.stream.write_all(&conn.write_buf[conn.write_pos..]);
                // `close_socket` drains without waiting.
                let _ = conn.stream.set_nonblocking(true);
            }
            close_conn(conn, metrics);
        }
    }
}

/// Counts a registered connection closed and closes its socket.
fn close_conn(conn: Conn, metrics: &ServeMetrics) {
    metrics.counter(ConnectionsClosed).inc();
    metrics.gauge(ConnectionsActive).dec();
    close_socket(conn.stream);
}

/// Closes a non-blocking socket without discarding what was written to it:
/// half-close, so the client reads the response and then EOF, and drop the
/// request bytes already readable, so the close is an orderly FIN rather
/// than a reset that could discard the response from the client's receive
/// buffer.  Never waits for the client.
fn close_socket(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match (&stream).read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DiffService;
    use crate::store::WorkflowStore;
    use std::io::{BufRead, Read, Write};
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    fn fig2_service() -> Arc<DiffService> {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        Arc::new(DiffService::new(store))
    }

    fn started_server() -> ServerHandle {
        let config = ServeConfig { threads: 2, ..ServeConfig::default() };
        Server::bind(AppState::single(fig2_service(), None), config).unwrap().start().unwrap()
    }

    /// Starts a server and keeps its state, so a test can read the metrics
    /// registry without a scrape connection of its own.
    fn started_with_state(config: ServeConfig) -> (Arc<AppState>, ServerHandle) {
        let server = Server::bind(AppState::single(fig2_service(), None), config).unwrap();
        let state = Arc::clone(&server.state);
        (state, server.start().unwrap())
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        // A reset after partial delivery still yields the delivered bytes;
        // the caller's assertion reports whatever arrived.
        let _ = stream.read_to_string(&mut out);
        out
    }

    /// Reads exactly one `Content-Length`-framed response off a keep-alive
    /// connection and returns its status line and body.
    fn read_response(reader: &mut impl std::io::BufRead) -> (String, String) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status.trim_end().to_string(), String::from_utf8(body).unwrap())
    }

    /// Reads one response off a keep-alive connection and returns its body.
    fn read_one_response(reader: &mut impl std::io::BufRead) -> String {
        read_response(reader).1
    }

    #[test]
    fn server_answers_over_a_real_socket_and_shuts_down() {
        let handle = started_server();
        let addr = handle.addr();
        let response = raw_request(
            addr,
            "GET /diff?spec=fig2&a=r1&b=r2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"distance\":4.0"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_not_a_hang() {
        let handle = started_server();
        let addr = handle.addr();
        let response = raw_request(addr, "BROKEN\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        let response = raw_request(addr, "GET / HTTP/0.9\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 505"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn newline_free_floods_are_cut_off_at_the_head_limit() {
        let handle = started_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A request line that never ends: the server must answer 431 once
        // the head budget is exhausted, not buffer the stream unboundedly.
        // Just over the limit is sent (it fits the socket buffers without
        // blocking), then the flood stops so the server's response is not
        // lost to a reset.
        let chunk = [b'a'; 4096];
        let mut sent = 0usize;
        while sent <= http::MAX_HEAD_BYTES {
            match stream.write_all(&chunk) {
                Ok(()) => sent += chunk.len(),
                Err(_) => break,
            }
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let handle = started_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let body = read_one_response(&mut reader);
            assert!(body.contains("\"ok\""), "{body}");
        }
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let handle = started_server();
        let addr = handle.addr();
        // Generate some traffic first so counters are non-zero.
        let _ = raw_request(
            addr,
            "GET /diff?spec=fig2&a=r1&b=r2 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let response = raw_request(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        assert!(response.contains("# TYPE wfdiff_http_requests_total counter"), "{response}");
        assert!(
            response.contains("wfdiff_http_requests_total{endpoint=\"diff\",code=\"2xx\"} 1"),
            "{response}"
        );
        assert!(response.contains("\nwfdiff_diff_cache_misses_total "), "{response}");
        handle.shutdown();
    }

    #[test]
    fn connection_table_overflow_answers_503() {
        let store = Arc::new(WorkflowStore::new());
        let service = Arc::new(DiffService::new(store));
        let config = ServeConfig { threads: 1, max_connections: 2, ..ServeConfig::default() };
        let handle =
            Server::bind(AppState::single(service, None), config).unwrap().start().unwrap();
        let addr = handle.addr();
        // Two idle connections fill the table (give the reactor a moment to
        // accept them), then a third is refused.
        let _a = TcpStream::connect(addr).unwrap();
        let _b = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let response = loop {
            let r = raw_request(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            if r.starts_with("HTTP/1.1 503") || Instant::now() > deadline {
                break r;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn refusing_connections_never_stalls_a_served_client() {
        let config = ServeConfig { threads: 1, max_connections: 2, ..ServeConfig::default() };
        let (state, handle) = started_with_state(config);
        let addr = handle.addr();
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
        let healthz = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        client.write_all(healthz).unwrap();
        assert!(read_one_response(&mut reader).contains("\"ok\""));
        // An idle connection takes the table's second slot.
        let _idle = TcpStream::connect(addr).unwrap();
        wait_until("both connections are admitted", || {
            state.metrics().gauge(ConnectionsActive).get() == 2
        });

        // Twenty silent clients are refused; answering them must not hold
        // up the one worker serving the admitted client.
        let refused: Vec<TcpStream> = (0..20).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let started = Instant::now();
        client.write_all(healthz).unwrap();
        let body = read_one_response(&mut reader);
        let elapsed = started.elapsed();
        assert!(body.contains("\"ok\""), "{body}");
        assert!(elapsed < Duration::from_millis(100), "healthz took {elapsed:?}");
        wait_until("every refusal is counted", || {
            state.metrics().counter(ConnectionsRejected).get() == 20
        });
        drop(refused);
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_before_eof() {
        let handle = started_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Three requests in one write, then a half-close: no readiness event
        // follows the first, so the server must serve the rest from its
        // buffer.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /diff?spec=fig2&a=r1&b=r2 HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /specs HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let expected = ["\"ok\"", "\"distance\":4.0", "\"fig2\""];
        for want in expected {
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
            assert!(body.contains(want), "expected {want} in {body}");
        }
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after the third response: {rest:?}");
        handle.shutdown();
    }

    #[test]
    fn responses_larger_than_the_socket_buffers_reach_a_late_reader_intact() {
        const REQUESTS: usize = 40;
        const TAG_BITS: usize = 6;
        let handle = started_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        // Request `i` carries its index in the first pairs' distances
        // (r1→r2 is a one bit, r1→r1 a zero bit), so order is checkable.
        let requests: Vec<u8> = (0..REQUESTS)
            .flat_map(|i| {
                let pairs: Vec<String> = (0..handlers::MAX_BATCH_PAIRS)
                    .map(|k| {
                        let b = if k < TAG_BITS && (i >> k) & 1 == 0 { "r1" } else { "r2" };
                        format!("[\"r1\",\"{b}\"]")
                    })
                    .collect();
                let body = format!("{{\"spec\":\"fig2\",\"pairs\":[{}]}}", pairs.join(","));
                format!(
                    "POST /diff/batch HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || writer.write_all(&requests));
        // Far more response bytes than loopback buffers hold pile up before
        // the client reads, so the server must park on EPOLLOUT and resume.
        std::thread::sleep(Duration::from_millis(500));
        let mut reader = std::io::BufReader::new(stream);
        let mut body_bytes = 0usize;
        for i in 0..REQUESTS {
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, "HTTP/1.1 200 OK", "response {i}: {body}");
            let response: api::BatchDiffResponse = serde_json::from_str(&body).unwrap();
            assert_eq!(response.distances.len(), handlers::MAX_BATCH_PAIRS, "response {i}");
            let tag = (0..TAG_BITS)
                .filter(|&k| response.distances[k].distance > 0.0)
                .fold(0usize, |tag, k| tag | 1 << k);
            assert_eq!(tag, i, "response {i} arrived out of order");
            body_bytes += body.len();
        }
        sender.join().unwrap().unwrap();
        assert!(body_bytes > 8 * 1024 * 1024, "only {body_bytes} response bytes");
        handle.shutdown();
    }

    #[test]
    fn shutdown_flushes_a_parked_response_before_closing() {
        const REQUESTS: usize = 1000;
        let handle = started_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // ~40 KB of pipelined scrapes asks for megabytes of responses, so
        // the server parks on EPOLLOUT long before answering them all.
        let requests = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".repeat(REQUESTS);
        stream.write_all(requests.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(500));
        let stopper = std::thread::spawn(move || handle.shutdown());
        // Every response that arrives is whole, and the connection then
        // ends cleanly at a response boundary.
        let mut reader = std::io::BufReader::new(stream);
        let mut answered = 0;
        while !reader.fill_buf().unwrap().is_empty() {
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, "HTTP/1.1 200 OK", "response {answered}: {body}");
            answered += 1;
        }
        stopper.join().unwrap();
        assert!(answered > 0 && answered < REQUESTS, "{answered} responses");
    }

    #[test]
    fn silent_connections_close_at_the_read_timeout() {
        let timeout = Duration::from_millis(200);
        let config = ServeConfig { read_timeout: timeout, ..ServeConfig::default() };
        let (state, handle) = started_with_state(config);
        let started = Instant::now();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).unwrap(), 0, "expected EOF from the server");
        let elapsed = started.elapsed();
        assert!(elapsed >= timeout, "closed after only {elapsed:?}");
        assert!(elapsed < timeout + Duration::from_millis(400), "closed after {elapsed:?}");
        assert_eq!(state.metrics().gauge(ConnectionsActive).get(), 0);
        handle.shutdown();
    }
}
