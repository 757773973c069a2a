//! The server's front-end: a single-threaded `poll(2)` reactor driving
//! every connection through nonblocking sockets.
//!
//! # Ownership model
//!
//! The reactor runs on the thread that called [`Server::run`]. It owns
//! the listener, every connection (socket, incremental [`FrameDecoder`],
//! write queue), the buffer pool, the transport counters, and the tenant
//! map outright; the only threads it spawns are the tenant actors, one per
//! tenant on its first request, reached through bounded mpsc queues. The
//! only things that cross threads are (a) actor commands, sent
//! non-blocking, and (b) completions, posted back on an mpsc channel by a
//! callback that then writes one byte into the reactor's self-pipe to
//! interrupt `poll`. Total OS threads for N connections: the reactor and
//! one per live tenant — independent of N.
//!
//! # Per-connection state machine
//!
//! Reads are incremental: whatever bytes arrive are appended to the
//! connection's [`FrameDecoder`], and complete frames are peeled off as
//! they form — byte-at-a-time delivery and frames split across reads are
//! the normal case, not an error. Writes are queued: responses encode
//! into pooled buffers and drain as `POLLOUT` allows, so a slow client
//! never blocks the loop.
//!
//! # Backpressure
//!
//! Three bounds compose, end to end:
//!
//! 1. At most **one in-flight actor command per connection**. Further
//!    complete frames stay buffered (undecoded) until the completion
//!    returns — this both preserves response ordering without a reorder
//!    buffer and bounds actor work per client.
//! 2. A connection whose write queue exceeds
//!    [`ServerConfig::max_write_buffer`] stops being *read* (its `POLLIN`
//!    interest is dropped) until the client drains responses — TCP flow
//!    control then pushes back on the client.
//! 3. A full actor queue surfaces as a typed
//!    [`ErrorCode::Busy`](crate::protocol::ErrorCode::Busy) response
//!    instead of blocking the loop or queueing unboundedly.
//!
//! [`Server::run`]: crate::server::Server::run

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, Receiver, Sender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use dagwave_paths::PathId;

use crate::actor::{
    spawn_tenant, ActorOp, ActorReply, Command, Responder, ServeError, TenantHandle,
};
use crate::protocol::{FrameDecoder, Request, Response};
use crate::server::{
    self, stats_response, wire_error_code, ServerConfig, Transport, WorkspaceFactory,
};

/// The raw `poll(2)`/`pipe(2)` surface, confined here so everything else
/// stays under `deny(unsafe_code)`. Hand-rolled declarations instead of a
/// libc dependency, per the offline-shim policy.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_ulong, c_void};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// One entry in the `poll(2)` set; layout fixed by POSIX.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    /// Block until some fd is ready or `timeout_ms` passes (negative =
    /// forever), retrying `EINTR` internally. Returns the ready count.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `repr(C)` PollFd; the kernel writes only `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// A nonblocking self-pipe: (read end, write end). Both ends close on
    /// drop via `OwnedFd`.
    pub fn wake_pipe() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `pipe` writes exactly two fds into the array.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the two fds were just returned by `pipe` and are owned
        // by no one else.
        let pair = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
        set_nonblocking(fds[0])?;
        set_nonblocking(fds[1])?;
        Ok(pair)
    }

    fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        // SAFETY: plain fcntl on an fd we own; no pointers involved.
        let flags = unsafe { fcntl(fd, F_GETFL, 0) };
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: as above.
        if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Write one wake byte. A full pipe (`EAGAIN`) means a wake is
    /// already pending, which serves the same purpose.
    pub fn wake(fd: RawFd) {
        let byte = 1u8;
        // SAFETY: one readable byte at a valid address, length 1.
        let _ = unsafe { write(fd, (&byte as *const u8).cast::<c_void>(), 1) };
    }

    /// Drain every pending wake byte from the read end.
    pub fn drain(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is a live 64-byte scratch buffer.
            let n = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

/// Wakes the poll loop from any thread by writing to its self-pipe.
/// Cheap to clone; the write end closes when the last clone drops.
#[derive(Clone)]
struct Waker {
    fd: Arc<std::os::fd::OwnedFd>,
}

impl Waker {
    /// Interrupt the poll loop (idempotent while a wake is pending).
    fn wake(&self) {
        sys::wake(self.fd.as_raw_fd());
    }
}

/// The read end of the self-pipe, owned by the reactor.
struct WakeReader {
    fd: std::os::fd::OwnedFd,
}

impl WakeReader {
    fn drain(&self) {
        sys::drain(self.fd.as_raw_fd());
    }
}

/// Build the self-pipe pair shared between the poll loop and its wakers.
fn wake_pair() -> io::Result<(WakeReader, Waker)> {
    let (read_end, write_end) = sys::wake_pipe()?;
    Ok((
        WakeReader { fd: read_end },
        Waker {
            fd: Arc::new(write_end),
        },
    ))
}

/// Recycles read/write buffers across frames and connections so
/// steady-state framing does zero allocations.
struct BufferPool {
    free: Vec<Vec<u8>>,
    max: usize,
}

/// Most idle buffers the pool retains; beyond this they drop (a burst's
/// memory is returned to the allocator once it passes).
const POOL_RETAIN: usize = 64;

impl BufferPool {
    fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            max: POOL_RETAIN,
        }
    }

    fn get(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(crate::protocol::READ_CHUNK))
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if self.free.len() < self.max {
            self.free.push(buf);
        }
    }
}

/// Identifies one connection slot across its lifetime: the generation
/// guards against a completion addressed to a connection that died and
/// whose slot was reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConnToken {
    slot: usize,
    gen: u64,
}

struct Entry {
    gen: u64,
    conn: Option<Conn>,
}

/// Connection storage with stable tokens and O(1) insert/remove.
struct Slab {
    entries: Vec<Entry>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> ConnToken {
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot];
                e.conn = Some(conn);
                ConnToken { slot, gen: e.gen }
            }
            None => {
                self.entries.push(Entry {
                    gen: 0,
                    conn: Some(conn),
                });
                ConnToken {
                    slot: self.entries.len() - 1,
                    gen: 0,
                }
            }
        }
    }

    fn get_mut(&mut self, token: ConnToken) -> Option<&mut Conn> {
        let e = self.entries.get_mut(token.slot)?;
        if e.gen != token.gen {
            return None;
        }
        e.conn.as_mut()
    }

    fn remove(&mut self, token: ConnToken) -> Option<Conn> {
        let e = self.entries.get_mut(token.slot)?;
        if e.gen != token.gen {
            return None;
        }
        let conn = e.conn.take()?;
        e.gen += 1;
        self.free.push(token.slot);
        Some(conn)
    }

    fn tokens(&self) -> impl Iterator<Item = ConnToken> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| e.conn.as_ref().map(|_| ConnToken { slot, gen: e.gen }))
    }
}

/// Encoded responses waiting for the socket to accept them. `head` is the
/// partial-write offset into the front buffer; `bytes` the queued total.
struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    head: usize,
    bytes: usize,
}

impl WriteQueue {
    fn new() -> Self {
        WriteQueue {
            bufs: VecDeque::new(),
            head: 0,
            bytes: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    fn push(&mut self, buf: Vec<u8>, pool: &mut BufferPool) {
        if buf.is_empty() {
            pool.put(buf);
            return;
        }
        self.bytes += buf.len();
        self.bufs.push_back(buf);
    }

    /// Write as much as the socket accepts right now; fully written
    /// buffers return to the pool. `WouldBlock` just stops the drain.
    /// Returns the bytes written.
    fn flush(&mut self, stream: &mut TcpStream, pool: &mut BufferPool) -> io::Result<usize> {
        let mut written = 0usize;
        while let Some(front_len) = self.bufs.front().map(Vec::len) {
            let res = stream.write(&self.bufs[0][self.head..]);
            match res {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    written += n;
                    self.head += n;
                    self.bytes -= n;
                    if self.head == front_len {
                        self.head = 0;
                        if let Some(done) = self.bufs.pop_front() {
                            pool.put(done);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

/// Which request the one in-flight actor command answers, shaping its
/// completion into the right wire response.
#[derive(Clone, Copy, Debug)]
enum PendingKind {
    Admit,
    Retire,
    Batch,
    Query,
    Delta,
    Stats,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    write: WriteQueue,
    /// The in-flight actor command, if any. While set, buffered frames
    /// stay undecoded — responses come back in request order for free.
    inflight: Option<PendingKind>,
    /// Close once the write queue drains (fatal wire error, `Shutdown`,
    /// or the peer's EOF after its buffered requests were served).
    draining: bool,
    /// Peer half-closed its side; serve what is buffered, then drain.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_buf: Vec<u8>) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::with_buffer(read_buf),
            write: WriteQueue::new(),
            inflight: None,
            draining: false,
            eof: false,
        }
    }
}

/// One actor reply routed back to the reactor thread.
struct Completion {
    token: ConnToken,
    reply: ActorReply,
}

struct Reactor {
    listener: TcpListener,
    wake: WakeReader,
    waker: Waker,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    conns: Slab,
    pool: BufferPool,
    factory: WorkspaceFactory,
    /// Every tenant created so far. An entry outlives its actor: a tenant
    /// whose actor died keeps answering `Stopped` instead of being
    /// silently rebuilt from the factory.
    tenants: HashMap<u64, (TenantHandle, JoinHandle<()>)>,
    transport: Transport,
    config: ServerConfig,
    /// A `Shutdown` request arrived: finish this round, then stop.
    shutdown: bool,
}

/// Serve until a `Shutdown` request, on the calling thread. Returns once
/// every tenant actor has exited and its last replies are flushed; the
/// listener closes on return.
pub(crate) fn run(
    listener: TcpListener,
    factory: WorkspaceFactory,
    config: ServerConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake, waker) = wake_pair()?;
    let (completions_tx, completions_rx) = mpsc::channel();
    let mut r = Reactor {
        listener,
        wake,
        waker,
        completions_tx,
        completions_rx,
        conns: Slab::new(),
        pool: BufferPool::new(),
        factory,
        tenants: HashMap::new(),
        transport: Transport::default(),
        config,
        shutdown: false,
    };
    let served = r.run();
    r.stop_tenants();
    r.final_drain();
    served
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut pollfds: Vec<sys::PollFd> = Vec::new();
        let mut tokens: Vec<ConnToken> = Vec::new();
        while !self.shutdown {
            pollfds.clear();
            tokens.clear();
            pollfds.push(sys::PollFd::new(self.wake.fd.as_raw_fd(), sys::POLLIN));
            pollfds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
            for token in self.conns.tokens().collect::<Vec<_>>() {
                let Some(conn) = self.conns.get_mut(token) else {
                    continue;
                };
                let mut events = 0i16;
                if !conn.eof
                    && !conn.draining
                    && conn.inflight.is_none()
                    && conn.write.bytes <= self.config.max_write_buffer
                {
                    events |= sys::POLLIN;
                }
                if !conn.write.is_empty() {
                    events |= sys::POLLOUT;
                }
                if events == 0 {
                    // Waiting on an actor completion only; the self-pipe
                    // will wake us.
                    continue;
                }
                pollfds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(token);
            }

            sys::poll_fds(&mut pollfds, -1)?;

            if pollfds[0].revents != 0 {
                self.wake.drain();
            }
            // Completions may be pending even without a wake byte (the
            // send-then-wake pair is not atomic); draining is cheap.
            while let Ok(c) = self.completions_rx.try_recv() {
                self.handle_completion(c);
            }
            if pollfds[1].revents != 0 {
                self.accept_all();
            }
            for (i, pfd) in pollfds.iter().enumerate().skip(2) {
                if pfd.revents == 0 {
                    continue;
                }
                let token = tokens[i - 2];
                self.handle_conn_event(token, pfd.revents);
            }
        }
        Ok(())
    }

    /// Close every actor's queue by dropping its last handle, then join
    /// them all: each answers the commands already queued to it and
    /// exits. Their replies are routed to the waiting connections (any
    /// frame those connections still had buffered is answered
    /// `ShuttingDown`).
    fn stop_tenants(&mut self) {
        let joins: Vec<JoinHandle<()>> = self
            .tenants
            .drain()
            .map(|(_, (handle, join))| {
                drop(handle);
                join
            })
            .collect();
        for join in joins {
            // A panicked actor already dropped its queued replies; there is
            // nothing left to route for it.
            let _ = join.join();
        }
        while let Ok(c) = self.completions_rx.try_recv() {
            self.handle_completion(c);
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop the connection, keep serving
                    }
                    let read_buf = self.pool.get();
                    self.conns.insert(Conn::new(stream, read_buf));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the peer
                // already reset) must not kill the loop.
                Err(_) => break,
            }
        }
    }

    fn handle_conn_event(&mut self, token: ConnToken, revents: i16) {
        if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            self.close(token);
            return;
        }
        if revents & (sys::POLLIN | sys::POLLHUP) != 0 && !self.read_conn(token) {
            return; // closed
        }
        if revents & sys::POLLOUT != 0 {
            self.flush_conn(token);
        }
        self.maybe_close(token);
    }

    /// One nonblocking read into the decoder, then process whatever
    /// frames completed. Returns false if the connection closed.
    fn read_conn(&mut self, token: ConnToken) -> bool {
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            match conn.decoder.fill_from(&mut conn.stream) {
                Ok(0) => conn.eof = true,
                Ok(n) => self.transport.bytes_in += n as u64,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        self.process_conn(token);
        true
    }

    /// Decode and dispatch buffered frames while the connection may make
    /// progress: no command in flight, write queue under the cap, not
    /// draining. Exactly the backpressure gate described in the module
    /// docs.
    fn process_conn(&mut self, token: ConnToken) {
        enum Step {
            /// Decoded a request that needs an actor; handled outside the
            /// connection borrow.
            Dispatch(Request),
            /// Handled inline (response queued); keep decoding.
            Continue,
            /// No progress possible right now.
            Done,
        }
        loop {
            let step = {
                let Reactor {
                    conns,
                    pool,
                    transport,
                    config,
                    shutdown,
                    ..
                } = self;
                let Some(conn) = conns.get_mut(token) else {
                    return;
                };
                if conn.draining
                    || conn.inflight.is_some()
                    || conn.write.bytes > config.max_write_buffer
                {
                    Step::Done
                } else {
                    match conn.decoder.next_frame() {
                        Ok(Some((op, payload))) => match Request::decode(op, payload) {
                            Ok(Request::Shutdown) => {
                                enqueue(conn, &Response::ShuttingDown, pool, transport);
                                conn.draining = true;
                                *shutdown = true;
                                Step::Done
                            }
                            Ok(req) => Step::Dispatch(req),
                            Err(e) => {
                                // Payload-level error: the frame was fully
                                // consumed, so the stream is still
                                // synchronized — report and keep serving.
                                let resp = Response::Error {
                                    code: wire_error_code(&e),
                                    message: e.to_string(),
                                };
                                enqueue(conn, &resp, pool, transport);
                                Step::Continue
                            }
                        },
                        Ok(None) => {
                            if conn.eof {
                                // Every buffered frame is served and no
                                // more bytes can arrive: flush and close.
                                conn.draining = true;
                            }
                            Step::Done
                        }
                        Err(e) => {
                            // Header-level error: the stream is
                            // unsynchronized. Answer once, then drain and
                            // close.
                            let resp = Response::Error {
                                code: wire_error_code(&e),
                                message: e.to_string(),
                            };
                            enqueue(conn, &resp, pool, transport);
                            conn.draining = true;
                            Step::Done
                        }
                    }
                }
            };
            match step {
                Step::Dispatch(req) => self.dispatch(token, req),
                Step::Continue => {}
                Step::Done => break,
            }
        }
        self.flush_conn(token);
        self.maybe_close(token);
    }

    /// Hand one decoded request to its tenant actor without blocking;
    /// immediate failures (factory error, full or stopped actor queue,
    /// shutdown under way) become typed responses on the spot.
    fn dispatch(&mut self, token: ConnToken, req: Request) {
        let (tenant, kind) = match &req {
            Request::Admit { tenant, .. } => (*tenant, PendingKind::Admit),
            Request::Retire { tenant, .. } => (*tenant, PendingKind::Retire),
            Request::Batch { tenant, .. } => (*tenant, PendingKind::Batch),
            Request::Query { tenant } => (*tenant, PendingKind::Query),
            Request::QueryDelta { tenant, .. } => (*tenant, PendingKind::Delta),
            Request::Stats { tenant } => (*tenant, PendingKind::Stats),
            Request::Shutdown => return, // handled by the caller
        };
        if self.shutdown {
            self.respond(token, &server::error_response(ServeError::Stopped));
            return;
        }
        let tx = self.completions_tx.clone();
        let waker = self.waker.clone();
        let respond = Responder::new(move |reply| {
            let _ = tx.send(Completion { token, reply });
            waker.wake();
        });
        let cmd = match req {
            Request::Admit { arcs, .. } => Command::Apply {
                ops: vec![ActorOp::Add(server::to_arc_ids(arcs))],
                respond,
            },
            Request::Retire { id, .. } => Command::Apply {
                ops: vec![ActorOp::Remove(PathId(id))],
                respond,
            },
            Request::Batch { ops, .. } => Command::Apply {
                ops: server::to_actor_ops(ops),
                respond,
            },
            Request::Query { .. } => Command::Query { respond },
            Request::QueryDelta { since, .. } => Command::QueryDelta { since, respond },
            Request::Stats { .. } => Command::Stats { respond },
            Request::Shutdown => return respond.disarm(),
        };
        // Every failure below answers on the spot, so the unsent command's
        // responder is disarmed: its drop must not post a second reply.
        let sent = match self.tenant(tenant) {
            Ok(handle) => handle.try_send(cmd),
            Err(e) => {
                cmd.disarm();
                self.respond(token, &server::error_response(e));
                return;
            }
        };
        match sent {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.inflight = Some(kind);
                }
            }
            Err(TrySendError::Full(cmd)) => {
                cmd.disarm();
                self.transport.busy_rejections += 1;
                self.respond(token, &server::error_response(ServeError::Busy));
            }
            Err(TrySendError::Disconnected(cmd)) => {
                cmd.disarm();
                self.respond(token, &server::error_response(ServeError::Stopped));
            }
        }
    }

    /// The tenant's actor handle, spawning the actor over a fresh
    /// workspace from the factory on the tenant's first request. A factory
    /// error is not cached: the next request for that tenant retries it.
    fn tenant(&mut self, tenant: u64) -> Result<&TenantHandle, ServeError> {
        let entry = match self.tenants.entry(tenant) {
            MapEntry::Occupied(e) => e.into_mut(),
            MapEntry::Vacant(e) => {
                let ws = (self.factory)(tenant)?;
                e.insert(spawn_tenant(ws, self.config.actor))
            }
        };
        Ok(&entry.0)
    }

    /// An actor reply came back: shape it into the wire response for the
    /// request kind that was in flight, then resume the connection.
    fn handle_completion(&mut self, c: Completion) {
        let resp = {
            let Some(conn) = self.conns.get_mut(c.token) else {
                return; // connection died while the command was in flight
            };
            let Some(kind) = conn.inflight.take() else {
                return;
            };
            completion_response(kind, c.reply, &self.transport)
        };
        self.respond(c.token, &resp);
        // The completion may unblock buffered frames.
        self.process_conn(c.token);
    }

    /// Enqueue a response and opportunistically flush, saving a poll
    /// round-trip when the socket has room (the common case).
    fn respond(&mut self, token: ConnToken, resp: &Response) {
        let Reactor {
            conns,
            pool,
            transport,
            ..
        } = self;
        let Some(conn) = conns.get_mut(token) else {
            return;
        };
        enqueue(conn, resp, pool, transport);
        self.flush_conn(token);
        self.maybe_close(token);
    }

    /// Drain the write queue as far as the socket allows. Returns false
    /// if the connection closed.
    fn flush_conn(&mut self, token: ConnToken) -> bool {
        let Reactor {
            conns,
            pool,
            transport,
            ..
        } = self;
        let Some(conn) = conns.get_mut(token) else {
            return false;
        };
        match conn.write.flush(&mut conn.stream, pool) {
            Ok(n) => {
                transport.bytes_out += n as u64;
                true
            }
            Err(_) => {
                self.close(token);
                false
            }
        }
    }

    /// Close the connection once it is fully served: draining (or EOF)
    /// with an empty write queue and nothing in flight.
    fn maybe_close(&mut self, token: ConnToken) {
        let done = self
            .conns
            .get_mut(token)
            .is_some_and(|c| c.draining && c.write.is_empty() && c.inflight.is_none());
        if done {
            self.close(token);
        }
    }

    fn close(&mut self, token: ConnToken) {
        if let Some(conn) = self.conns.remove(token) {
            self.pool.put(conn.decoder.into_buffer());
            for buf in conn.write.bufs {
                self.pool.put(buf);
            }
            // `conn.stream` drops here, closing the socket.
        }
    }

    /// Best-effort post-shutdown flush: give connections with queued
    /// responses a short bounded window to drain, then drop everything.
    fn final_drain(&mut self) {
        /// Per-round poll timeout during the shutdown drain.
        const DRAIN_POLL_MS: i32 = 50;
        /// Rounds before giving up on slow readers (bounds shutdown at
        /// `DRAIN_ROUNDS * DRAIN_POLL_MS` ≈ 1s).
        const DRAIN_ROUNDS: usize = 20;
        for _ in 0..DRAIN_ROUNDS {
            let pending: Vec<ConnToken> = self
                .conns
                .tokens()
                .collect::<Vec<_>>()
                .into_iter()
                .filter(|t| self.conns.get_mut(*t).is_some_and(|c| !c.write.is_empty()))
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut fds: Vec<sys::PollFd> = Vec::new();
            for &t in &pending {
                if let Some(conn) = self.conns.get_mut(t) {
                    fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), sys::POLLOUT));
                }
            }
            if sys::poll_fds(&mut fds, DRAIN_POLL_MS).is_err() {
                break;
            }
            for &t in &pending {
                self.flush_conn(t);
            }
        }
    }
}

/// Encode `resp` into a pooled buffer onto the connection's write queue,
/// tracking the global high-water mark.
fn enqueue(conn: &mut Conn, resp: &Response, pool: &mut BufferPool, transport: &mut Transport) {
    let mut buf = pool.get();
    resp.encode_frame_into(&mut buf);
    conn.write.push(buf, pool);
    transport.max_write_queue = transport.max_write_queue.max(conn.write.bytes as u64);
}

/// Map an actor reply back to the wire response for the request kind it
/// answers. A kind/reply mismatch cannot happen by construction; answer
/// with a typed error rather than panic if it ever does.
fn completion_response(kind: PendingKind, reply: ActorReply, transport: &Transport) -> Response {
    match (kind, reply) {
        (PendingKind::Admit, ActorReply::Applied(Ok(ids))) => server::admitted_response(ids),
        (PendingKind::Retire, ActorReply::Applied(Ok(_))) => Response::Retired,
        (PendingKind::Batch, ActorReply::Applied(Ok(ids))) => Response::Applied {
            added: ids.into_iter().map(|id| id.0).collect(),
        },
        (PendingKind::Query, ActorReply::Snapshot(Ok(snap))) => server::solution_response(&snap),
        (PendingKind::Delta, ActorReply::Delta(Ok(d))) => server::delta_response(&d),
        (PendingKind::Stats, ActorReply::Stats(pair)) => {
            stats_response(&pair.0, &pair.1, transport)
        }
        (_, ActorReply::Applied(Err(e)))
        | (_, ActorReply::Snapshot(Err(e)))
        | (_, ActorReply::Delta(Err(e))) => server::error_response(e),
        _ => server::error_response(ServeError::Stopped),
    }
}
