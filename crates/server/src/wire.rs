//! The socket transport: real frames over TCP loopback replace the
//! in-process call.
//!
//! Server side, [`WireServer`] wraps any `Arc<dyn ServerHandle>` behind a
//! listener: an accept thread spawns one connection thread per client
//! socket, each running a read-frame → decode → dispatch → encode →
//! write-frame loop (std::net + threads; no async runtime exists in this
//! build environment). Connection threads dispatch concurrently into the
//! one shared handle; nothing queues between the socket and the server.
//!
//! Client side, [`TcpTransport`] implements [`ServerHandle`]: `call` is a
//! synchronous request/reply on the calling thread — it writes its frame
//! and reads its own reply through the connection's one I/O mutex, so the
//! transport owns no thread and no reply table. The paper's client is
//! closed-loop (one outstanding contact per mobile client), and concurrent
//! callers on one [`ClientId`] simply take turns on that mutex. Each
//! [`ClientId`] gets its own lazily opened connection (mirroring "one
//! channel per mobile client"), and answering a [`Request::Forget`] closes
//! that client's connection — the disconnect the envelope models. A call
//! whose exchange fails (peer death, a reply that does not echo the
//! request's `seq`) panics loudly and drops the connection; the next call
//! reconnects.
//!
//! Both ends read frames only through [`pc_wire::read_frame`].
//!
//! Measured bytes: both ends count actual encoded frame lengths alongside
//! the `wire_bytes()` model, and the identity
//! `measured == modeled + itemized framing overhead` is exposed via
//! [`WireTransportStats`] — the live cross-check that the paper-model
//! ledger and the wire are telling the same story.
//!
//! Out-of-band metadata (`core()`, `bootstrap_root`, `apply_updates`,
//! `log_records`) delegates to the wrapped in-process handle: the byte
//! ledger charges nothing for it, so it does not travel the socket.

use crate::config::ClientId;
use crate::sync_util::{lock_recover, Counter};
use crate::transport::{ServerHandle, Transport};
use crate::updates::Update;
use crate::ServerCore;
use pc_geom::Rect;
use pc_rtree::proto::{Request, Response};
use pc_rtree::NodeId;
use pc_wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, request_overhead,
    response_overhead, tag, WireError, FRAME_HEADER_BYTES,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for the server's connection loop.
#[derive(Clone, Copy, Debug)]
pub struct WireServerConfig {
    /// Hard cap on a declared frame body; larger frames are rejected and
    /// the offending connection closed (never an allocation).
    pub max_frame_bytes: u64,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            // Generous for simulated object payloads; tiny against memory.
            max_frame_bytes: 8 << 20,
        }
    }
}

/// Counters the server side keeps about its wire traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireServerStats {
    /// Connections the accept loop accepted.
    pub connections_accepted: u64,
    /// Accepted connections closed unserved because the OS refused them a
    /// handler thread; the accept loop keeps accepting.
    pub connections_dropped: u64,
    /// Requests decoded, dispatched and answered.
    pub requests_served: u64,
    /// Frames refused for framing violations (bad magic/version/oversize).
    pub frames_rejected: u64,
    /// Frames whose body failed to decode into a request.
    pub requests_aborted: u64,
    /// Total frame bytes read (headers + bodies).
    pub rx_frame_bytes: u64,
    /// Total frame bytes written.
    pub tx_frame_bytes: u64,
}

#[derive(Default)]
struct ServerCounters {
    connections_accepted: Counter,
    connections_dropped: Counter,
    requests_served: Counter,
    frames_rejected: Counter,
    requests_aborted: Counter,
    rx_frame_bytes: Counter,
    tx_frame_bytes: Counter,
}

impl ServerCounters {
    fn snapshot(&self) -> WireServerStats {
        WireServerStats {
            connections_accepted: self.connections_accepted.get(),
            connections_dropped: self.connections_dropped.get(),
            requests_served: self.requests_served.get(),
            frames_rejected: self.frames_rejected.get(),
            requests_aborted: self.requests_aborted.get(),
            rx_frame_bytes: self.rx_frame_bytes.get(),
            tx_frame_bytes: self.tx_frame_bytes.get(),
        }
    }
}

/// A serving TCP endpoint over a [`ServerHandle`]. Dropping it (or calling
/// [`WireServer::shutdown`]) stops the accept loop and joins every
/// connection thread — in-flight requests are drained, not dropped, so a
/// fleet's summaries stay exactly mergeable across a shutdown.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    stats: Arc<ServerCounters>,
}

/// The connection's socket as [`read_frame`] sees it while the server may
/// be stopping: the 250 ms read timeout becomes a poll of the stop flag.
/// One adaptor reads one frame. Before the frame's first byte a raised
/// flag reads as a clean EOF, so the connection drains on a frame
/// boundary; mid-frame it keeps reading so a request already on the wire
/// completes (bounded by the peer closing or the 40-tick cap ≈ 10 s
/// against a wedged peer).
struct StopAwareRead<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    mid_frame: bool,
    stalled_ticks: u32,
}

impl Read for StopAwareRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.mid_frame |= n > 0;
                    self.stalled_ticks = 0;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "ordering: Relaxed — standalone stop flag carrying no data; this loop re-loads it every timeout tick, so cache coherence alone bounds how stale a read can be"
                    )]
                    let stopping = self.stop.load(Ordering::Relaxed);
                    if stopping {
                        if !self.mid_frame {
                            return Ok(0);
                        }
                        self.stalled_ticks += 1;
                        if self.stalled_ticks > 40 {
                            return Err(e);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    handle: &Arc<dyn ServerHandle>,
    cfg: WireServerConfig,
    stop: &AtomicBool,
    stats: &ServerCounters,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    loop {
        let mut reader = StopAwareRead {
            stream: &stream,
            stop,
            mid_frame: false,
            stalled_ticks: 0,
        };
        let frame = match read_frame(&mut reader, cfg.max_frame_bytes) {
            Ok(frame) if tag::is_request(frame.header.tag) => frame,
            // Clean EOF, or the stop flag, on a frame boundary.
            Err(WireError::Closed) => return,
            // Bad magic/version, an oversized or truncated frame, a wedged
            // peer during drain, a socket error, a response tag: the stream
            // is desynchronized beyond recovery — close it.
            _ => {
                stats.frames_rejected.add(1);
                return;
            }
        };
        let header = frame.header;
        stats
            .rx_frame_bytes
            .add(FRAME_HEADER_BYTES + frame.body.len() as u64);
        let req = match decode_request(header.tag, &frame.body) {
            Ok(r) => r,
            Err(_) => {
                stats.requests_aborted.add(1);
                return;
            }
        };
        let resp = handle.call(header.client, req);
        let frame = encode_response(header.client, header.seq, &resp);
        #[expect(
            clippy::disallowed_methods,
            reason = "guard: holds no lock — the connection thread owns its stream, so a slow peer stalls only its own connection"
        )]
        let sent = stream.write_all(&frame);
        if sent.is_err() {
            return;
        }
        stats.tx_frame_bytes.add(frame.len() as u64);
        stats.requests_served.add(1);
    }
}

impl WireServer {
    /// Binds `127.0.0.1:0` and starts serving `handle`.
    pub fn spawn(
        handle: Arc<dyn ServerHandle>,
        cfg: WireServerConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerCounters::default());

        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("wire-accept".into())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    for incoming in listener.incoming() {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "ordering: Relaxed — stop flag re-loaded once per accepted connection; `shutdown` keeps sending wake connections until this thread exits, so a stale read here only costs one more wake round"
                        )]
                        let stopping = stop.load(Ordering::Relaxed);
                        if stopping {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        stats.connections_accepted.add(1);
                        let handle = Arc::clone(&handle);
                        let stop = Arc::clone(&stop);
                        let conn_stats = Arc::clone(&stats);
                        // A refused spawn drops the closure, and with it
                        // the stream: that one peer's socket closes and
                        // the loop keeps serving the rest.
                        let spawned = std::thread::Builder::new()
                            .name("wire-conn".into())
                            .spawn(move || {
                                handle_connection(stream, &handle, cfg, &stop, &conn_stats);
                            });
                        match spawned {
                            Ok(t) => conns.push(t),
                            Err(_) => stats.connections_dropped.add(1),
                        }
                        conns.retain(|t| !t.is_finished());
                    }
                    // Close the listener before draining so late shutdown
                    // wake connections are refused instead of queued.
                    drop(listener);
                    // Drain: every connection finishes its in-flight work.
                    for t in conns {
                        let _ = t.join();
                    }
                })?
        };
        Ok(WireServer {
            addr,
            stop,
            accept: Some(accept),
            stats,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> WireServerStats {
        self.stats.snapshot()
    }

    /// Stops accepting, drains every connection and joins all threads.
    pub fn shutdown(&mut self) {
        let Some(t) = self.accept.take() else { return };
        // A single one-shot wake could race a not-yet-visible flag store
        // and leave the loop parked in accept() forever; the wake below
        // therefore retries until the accept thread confirms exit.
        #[expect(
            clippy::disallowed_methods,
            reason = "ordering: Relaxed — every wake forces another load of the stop flag, and coherence makes the store visible within finitely many rounds"
        )]
        self.stop.store(true, Ordering::Relaxed);
        while !t.is_finished() {
            // Refused once the accept loop drops the listener to drain.
            let _ = TcpStream::connect(self.addr);
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = t.join();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Measured-vs-modeled byte counters for one [`TcpTransport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireTransportStats {
    /// Frames sent / received.
    pub tx_frames: u64,
    pub rx_frames: u64,
    /// Actual encoded frame bytes sent / received (headers included).
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    /// What the `wire_bytes()` model charges for the same traffic.
    pub modeled_tx_bytes: u64,
    pub modeled_rx_bytes: u64,
    /// Itemized framing overhead (frame + section headers).
    pub tx_overhead_bytes: u64,
    pub rx_overhead_bytes: u64,
}

impl WireTransportStats {
    /// The measured-bytes cross-check: every measured byte is either a
    /// modeled byte or itemized framing — no drift in either direction.
    pub fn reconciles(&self) -> bool {
        self.tx_bytes == self.modeled_tx_bytes + self.tx_overhead_bytes
            && self.rx_bytes == self.modeled_rx_bytes + self.rx_overhead_bytes
    }
}

#[derive(Default)]
struct TransportCounters {
    tx_frames: Counter,
    rx_frames: Counter,
    tx_bytes: Counter,
    rx_bytes: Counter,
    modeled_tx: Counter,
    modeled_rx: Counter,
    tx_overhead: Counter,
    rx_overhead: Counter,
}

impl TransportCounters {
    /// Accounts one encoded request frame about to hit the wire.
    fn note_tx(&self, frame_len: u64, req: &Request) {
        self.tx_frames.add(1);
        self.tx_bytes.add(frame_len);
        self.modeled_tx.add(req.wire_bytes());
        self.tx_overhead.add(request_overhead(req));
    }

    /// Accounts one decoded response frame read off the wire.
    fn note_rx(&self, frame_len: u64, resp: &Response) {
        self.rx_frames.add(1);
        self.rx_bytes.add(frame_len);
        self.modeled_rx.add(resp.wire_bytes());
        self.rx_overhead.add(response_overhead(resp));
    }

    fn snapshot(&self) -> WireTransportStats {
        WireTransportStats {
            tx_frames: self.tx_frames.get(),
            rx_frames: self.rx_frames.get(),
            tx_bytes: self.tx_bytes.get(),
            rx_bytes: self.rx_bytes.get(),
            modeled_tx_bytes: self.modeled_tx.get(),
            modeled_rx_bytes: self.modeled_rx.get(),
            tx_overhead_bytes: self.tx_overhead.get(),
            rx_overhead_bytes: self.rx_overhead.get(),
        }
    }
}

/// Client-side response frame ceiling. Unlike the server's request cap
/// (a hostile-input guard), responses come from our own server and scale
/// with result payloads — a cold query against a large cache can ship
/// tens of MB of objects in one reply — so this is only a desync sanity
/// check: a stream whose header promises more than this is corrupt, not
/// busy.
const RESPONSE_FRAME_CAP_BYTES: u64 = 1 << 30;

/// One client's channel: the socket and the next `seq`. It lives behind
/// the one per-connection I/O mutex, which a call holds from its frame
/// write to the end of its reply read.
struct Conn {
    stream: TcpStream,
    seq: u32,
}

mod conn_table {
    use super::{lock_recover, Arc, ClientId, Conn, Mutex};
    use std::collections::HashMap;

    /// A [`super::TcpTransport`]'s connections by client. The table lock
    /// covers one map operation and no method hands out its guard, so no
    /// table guard can be live at a blocking socket write.
    #[derive(Default)]
    pub(super) struct ConnTable(Mutex<HashMap<ClientId, Arc<Mutex<Conn>>>>);

    impl ConnTable {
        pub(super) fn get(&self, client: ClientId) -> Option<Arc<Mutex<Conn>>> {
            lock_recover(&self.0).get(&client).cloned()
        }

        /// `client`'s connection, inserting `conn` if it has none: of two
        /// racing inserts the first wins and the loser's socket closes
        /// unused.
        pub(super) fn get_or_insert(&self, client: ClientId, conn: Conn) -> Arc<Mutex<Conn>> {
            let mut table = lock_recover(&self.0);
            let conn = table
                .entry(client)
                .or_insert_with(|| Arc::new(Mutex::new(conn)));
            Arc::clone(conn)
        }

        /// Removes `client`'s connection if it is still `conn`, not a newer
        /// one that took its place.
        pub(super) fn remove_if_same(&self, client: ClientId, conn: &Arc<Mutex<Conn>>) {
            let mut table = lock_recover(&self.0);
            if table.get(&client).is_some_and(|c| Arc::ptr_eq(c, conn)) {
                table.remove(&client);
            }
        }

        pub(super) fn remove(&self, client: ClientId) {
            lock_recover(&self.0).remove(&client);
        }

        pub(super) fn clear(&self) {
            lock_recover(&self.0).clear();
        }
    }
}

/// Client-side [`ServerHandle`] over a TCP connection per [`ClientId`].
pub struct TcpTransport {
    addr: SocketAddr,
    /// In-process handle backing the out-of-band metadata surface.
    inner: Arc<dyn ServerHandle>,
    conns: conn_table::ConnTable,
    counters: TransportCounters,
}

impl TcpTransport {
    /// Connects lazily to `addr`; `inner` answers the metadata surface
    /// (`core()`, `bootstrap_root`, …) that never travels the channel.
    pub fn connect(addr: SocketAddr, inner: Arc<dyn ServerHandle>) -> TcpTransport {
        TcpTransport {
            addr,
            inner,
            conns: conn_table::ConnTable::default(),
            counters: TransportCounters::default(),
        }
    }

    pub fn stats(&self) -> WireTransportStats {
        self.counters.snapshot()
    }

    /// `client`'s connection, opened on first use. The table lock covers
    /// only the lookup and the insert — never the connect, which would
    /// stall every other client's call behind one client's handshake.
    fn conn(&self, client: ClientId) -> Arc<Mutex<Conn>> {
        if let Some(conn) = self.conns.get(client) {
            return conn;
        }
        #[expect(
            clippy::expect_used,
            reason = "client-side harness precondition: the loopback server runs in this same process, so a refused connect is unrecoverable setup breakage — fail fast at the first call"
        )]
        let stream = TcpStream::connect(self.addr)
            .and_then(|s| s.set_nodelay(true).map(|()| s))
            .expect("wire transport: connect to loopback server");
        self.conns.get_or_insert(client, Conn { stream, seq: 0 })
    }

    /// One request/reply exchange on `conn`. `Err` says why the connection
    /// can no longer be used; its socket is already shut down then, so a
    /// caller queued on the same connection fails as promptly.
    fn exchange(
        &self,
        conn: &Mutex<Conn>,
        client: ClientId,
        req: &Request,
    ) -> Result<Response, String> {
        // Held across the blocking write *and* read by design: this guard
        // is the channel, and only callers sharing the `ClientId` contend.
        let mut io = lock_recover(conn);
        let seq = io.seq;
        io.seq = seq.wrapping_add(1);
        let frame = encode_request(client, seq, req);
        self.counters.note_tx(frame.len() as u64, req);
        #[expect(
            clippy::disallowed_methods,
            reason = "guard: holds only `io`, the per-connection I/O mutex — it is the channel, and only callers sharing the `ClientId` contend"
        )]
        let sent = io.stream.write_all(&frame).map_err(WireError::from);
        let reply = sent.and_then(|()| read_frame(&mut io.stream, RESPONSE_FRAME_CAP_BYTES));
        let died = |e: WireError| format!("connection died awaiting reply seq {seq}: {e}");
        let outcome = match reply {
            Ok(reply) if reply.header.seq != seq || !tag::is_response(reply.header.tag) => {
                Err(format!(
                    "desynchronized stream: a frame with tag {} seq {} answered request seq {seq}",
                    reply.header.tag, reply.header.seq
                ))
            }
            Ok(reply) => decode_response(reply.header.tag, &reply.body)
                .inspect(|resp| {
                    self.counters
                        .note_rx(FRAME_HEADER_BYTES + reply.body.len() as u64, resp);
                })
                .map_err(died),
            Err(e) => Err(died(e)),
        };
        if outcome.is_err() {
            let _ = io.stream.shutdown(Shutdown::Both);
        }
        outcome
    }

    /// Closes `client`'s connection (the server handler sees EOF). A call
    /// still in flight on another thread finishes first: the socket closes
    /// with its last user.
    pub fn disconnect(&self, client: ClientId) {
        self.conns.remove(client);
    }

    /// Closes every connection.
    pub fn disconnect_all(&self) {
        self.conns.clear();
    }
}

impl Transport for TcpTransport {
    #[expect(
        clippy::panic,
        reason = "Transport::call is infallible by signature: a channel that died or desynchronized mid-contact fails its caller loudly rather than hanging or inventing a reply"
    )]
    fn call(&self, client: ClientId, req: Request) -> Response {
        let conn = self.conn(client);
        let outcome = self.exchange(&conn, client, &req);
        if outcome.is_err() || matches!(req, Request::Forget) {
            // The forget envelope models the disconnect, and a failed
            // exchange leaves a dead socket: either way retire this
            // connection (unless a newer one already took its place) so
            // the next call reconnects.
            self.conns.remove_if_same(client, &conn);
        }
        outcome.unwrap_or_else(|why| panic!("wire transport: {why}"))
    }
}

impl ServerHandle for TcpTransport {
    fn core(&self) -> &ServerCore {
        self.inner.core()
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        // Server-side churn, not client traffic: stays off the channel.
        self.inner.apply_updates(updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64) {
        self.inner.bootstrap_root()
    }

    fn log_records(&self) -> usize {
        self.inner.log_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FormPolicy;
    use crate::test_util::{cold_remainder, sample_server};
    use crate::Cluster;
    use pc_geom::{Point, Rect};
    use pc_rtree::proto::QuerySpec;
    use pc_wire::FrameHeader;

    fn served(objects: usize, seed: u64) -> (WireServer, Arc<Cluster>) {
        let server = Arc::new(sample_server(objects, seed, FormPolicy::Adaptive));
        let handle: Arc<dyn ServerHandle> = Arc::clone(&server) as Arc<dyn ServerHandle>;
        let ws = WireServer::spawn(handle, WireServerConfig::default()).unwrap();
        (ws, server)
    }

    #[test]
    fn round_trip_over_loopback_matches_in_process() {
        let (mut ws, server) = served(200, 5);
        let reference = sample_server(200, 5, FormPolicy::Adaptive);
        let tcp = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
        for client in 0..3u32 {
            let spec = QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.4 + 0.1 * client as f64, 0.5), 0.2),
            };
            let rq = cold_remainder(&reference, spec);
            let over_wire = tcp.call(client, Request::Remainder(rq.clone()));
            let direct = reference.call(client, Request::Remainder(rq));
            assert_eq!(over_wire.into_remainder(), direct.into_remainder());
        }
        let stats = tcp.stats();
        assert!(
            stats.reconciles(),
            "measured != modeled + overhead: {stats:?}"
        );
        assert_eq!(stats.tx_frames, 3);
        assert_eq!(stats.rx_frames, 3);
        drop(tcp);
        ws.shutdown();
        let s = ws.stats();
        assert_eq!(s.requests_served, 3);
        assert_eq!(s.frames_rejected, 0);
    }

    /// What a scripted raw peer does with the one request it reads on
    /// each connection it accepts, before closing that connection.
    #[derive(Clone, Copy)]
    enum Peer {
        HangUp,
        WrongSeq,
        RequestTag,
        Honest,
    }

    /// A scripted peer's raw bytes, written to its own socket.
    #[expect(
        clippy::disallowed_methods,
        reason = "guard: a scripted test peer holds no lock; the socket is its own"
    )]
    fn send(s: &mut TcpStream, bytes: &[u8]) {
        s.write_all(bytes).unwrap();
    }

    /// Accepts one connection per script entry, in order.
    fn scripted_peer(script: Vec<Peer>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            for behaviour in script {
                let (mut s, _) = listener.accept().unwrap();
                let asked = read_frame(&mut s, 1 << 20).unwrap().header;
                let reply = match behaviour {
                    Peer::HangUp => continue,
                    Peer::WrongSeq => {
                        encode_response(asked.client, asked.seq + 1, &Response::NewD(3))
                    }
                    Peer::RequestTag => encode_request(asked.client, asked.seq, &Request::Forget),
                    Peer::Honest => encode_response(asked.client, asked.seq, &Response::NewD(3)),
                };
                send(&mut s, &reply);
            }
        });
        (addr, peer)
    }

    #[test]
    fn a_dying_or_desynchronized_peer_fails_the_call_loudly_and_the_next_call_reconnects() {
        let (addr, peer) = scripted_peer(vec![
            Peer::HangUp,
            Peer::WrongSeq,
            Peer::RequestTag,
            Peer::Honest,
        ]);
        let inner = Arc::new(sample_server(10, 1, FormPolicy::Adaptive));
        let tcp = TcpTransport::connect(addr, inner as Arc<dyn ServerHandle>);
        let report = || tcp.call(5, Request::ReportFmr { fmr: 0.5 });
        // The peer serves one request per connection, so each failure below
        // is only reached if the failure before it dropped its connection.
        for expected in ["connection died", "desynchronized", "desynchronized"] {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(report))
                .expect_err("a broken exchange must not return a reply");
            let msg = panic.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains(expected), "expected {expected:?} in {msg:?}");
        }
        assert_eq!(report().into_new_d(), 3, "a fresh connection is healthy");
        assert_eq!(tcp.stats().rx_frames, 1, "only the honest reply counted");
        drop(tcp);
        peer.join().unwrap();
    }

    #[test]
    fn concurrent_callers_on_one_client_each_get_the_reply_to_their_own_request() {
        let (mut ws, server) = served(400, 13);
        let tcp = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
        // All four threads race the first connect, then take turns on the
        // winner's connection; every request asks for a different k, so a
        // reply handed to the wrong caller cannot pass.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (tcp, server, start) = (&tcp, &server, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50u32 {
                        let ask = || {
                            Request::Direct(QuerySpec::Knn {
                                center: Point::new(0.5, 0.5),
                                k: 1 + t * 50 + i,
                            })
                        };
                        let over_wire = tcp.call(7, ask()).into_direct();
                        assert_eq!(over_wire.results.len() as u32, 1 + t * 50 + i);
                        assert_eq!(over_wire, server.call(7, ask()).into_direct());
                    }
                });
            }
        });
        let stats = tcp.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!((stats.tx_frames, stats.rx_frames), (200, 200));
        drop(tcp);
        ws.shutdown();
        assert_eq!(ws.stats().requests_served, 200);
    }

    #[test]
    fn client_disconnect_mid_request_leaves_server_serving() {
        let (mut ws, server) = served(100, 3);
        // Half a frame: a valid header promising 64 body bytes, then EOF.
        let mut s = TcpStream::connect(ws.addr()).unwrap();
        let hdr = FrameHeader {
            tag: tag::REQ_DIRECT,
            flags: 0,
            seq: 0,
            client: 1,
            body_len: 64,
        };
        send(&mut s, &hdr.to_bytes());
        send(&mut s, &[0u8; 10]);
        drop(s); // disconnect mid-request

        // The server must shrug it off and keep serving other clients.
        let tcp = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
        let d = tcp
            .call(
                2,
                Request::Direct(QuerySpec::Knn {
                    center: Point::new(0.5, 0.5),
                    k: 2,
                }),
            )
            .into_direct();
        assert_eq!(d.results.len(), 2);
        drop(tcp);
        ws.shutdown();
        let stats = ws.stats();
        assert_eq!(stats.requests_served, 1);
        assert_eq!(stats.frames_rejected, 1, "the half frame was rejected");
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let (mut ws, server) = served(100, 4);
        let mut s = TcpStream::connect(ws.addr()).unwrap();
        let hdr = FrameHeader {
            tag: tag::REQ_REMAINDER,
            flags: 0,
            seq: 0,
            client: 1,
            body_len: u32::MAX,
        };
        send(&mut s, &hdr.to_bytes());
        // The server closes the connection instead of reading 4 GiB.
        let mut buf = [0u8; 1];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection must be closed on an oversized frame");
        drop(s);

        // Other clients are unaffected.
        let tcp = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
        assert_eq!(
            tcp.call(9, Request::ReportFmr { fmr: 0.1 })
                .clone()
                .into_new_d(),
            crate::adaptive::INITIAL_D
        );
        drop(tcp);
        ws.shutdown();
        assert_eq!(ws.stats().frames_rejected, 1);
    }

    /// A deployment that counts the requests reaching it.
    struct Tally {
        inner: Cluster,
        calls: Counter,
    }

    impl Transport for Tally {
        fn call(&self, client: ClientId, req: Request) -> Response {
            self.calls.add(1);
            self.inner.call(client, req)
        }
    }

    impl ServerHandle for Tally {
        fn core(&self) -> &ServerCore {
            self.inner.core()
        }

        fn apply_updates(&self, updates: &[Update]) -> u64 {
            self.inner.apply_updates(updates)
        }

        fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64) {
            self.inner.bootstrap_root()
        }

        fn log_records(&self) -> usize {
            self.inner.log_records()
        }
    }

    #[test]
    fn an_out_of_range_spec_closes_its_connection_before_the_server() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let knn = |center, k| QuerySpec::Knn { center, k };
        let join = |dist| QuerySpec::Join { dist };
        let window = Rect::from_point(Point::new(nan, 0.2));
        let center = Point::new(0.5, 0.5);
        let hostile = [
            QuerySpec::Range { window },
            knn(Point::new(0.5, inf), 3),
            join(nan),
            join(-0.1),
            join(inf),
            knn(center, 0),
        ];
        for (i, spec) in hostile.into_iter().enumerate() {
            let tally = Arc::new(Tally {
                inner: sample_server(200, 21, FormPolicy::Adaptive),
                calls: Counter::default(),
            });
            let handle = Arc::clone(&tally) as Arc<dyn ServerHandle>;
            let mut ws =
                WireServer::spawn(Arc::clone(&handle), WireServerConfig::default()).unwrap();
            let mut s = TcpStream::connect(ws.addr()).unwrap();
            send(&mut s, &encode_request(4, 0, &Request::Direct(spec)));
            let mut buf = [0u8; 1];
            assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "{spec:?} was answered");
            drop(s);

            let tcp = TcpTransport::connect(ws.addr(), handle);
            let ask = || Request::Direct(knn(center, 2 + i as u32));
            let over_wire = tcp.call(4, ask()).into_direct();
            assert_eq!(over_wire, tally.inner.call(4, ask()).into_direct());
            drop(tcp);
            ws.shutdown();
            let stats = ws.stats();
            assert_eq!(stats.requests_aborted, 1, "{spec:?}");
            assert_eq!(stats.requests_served, 1, "{spec:?}");
            assert_eq!(tally.calls.get(), 1, "{spec:?} reached the server");
        }
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        let (mut ws, _server) = served(50, 8);
        let mut s = TcpStream::connect(ws.addr()).unwrap();
        send(&mut s, b"GET / HTTP/1.1\r\n\r\n");
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "bad magic closes");
        drop(s);
        ws.shutdown();
        assert_eq!(ws.stats().frames_rejected, 1);
    }

    #[test]
    fn forget_closes_the_connection_and_server_drains() {
        let (mut ws, server) = served(150, 6);
        let tcp = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
        tcp.call(3, Request::ReportFmr { fmr: 0.2 });
        assert_eq!(server.adaptive().tracked_clients(), 1);
        assert!(tcp.call(3, Request::Forget).into_forgotten());
        assert_eq!(server.adaptive().tracked_clients(), 0);
        // The next call transparently reconnects.
        tcp.call(3, Request::ReportFmr { fmr: 0.2 });
        assert_eq!(server.adaptive().tracked_clients(), 1);
        drop(tcp);
        ws.shutdown();
        let stats = ws.stats();
        assert_eq!(stats.requests_served, 3);
        assert_eq!(stats.connections_accepted, 2, "forget dropped the socket");
    }
}
