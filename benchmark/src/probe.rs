//! The `ServerHandle` decorator of the traced run. It sits *under* the
//! transport — handed to `WireServer::spawn`, or wrapping `&Server` /
//! `Cluster` directly — so the interval it times is the server's dispatch
//! alone, and `transport.call` minus it is what the transport added.
//!
//! A closed-loop client has one call in flight, so the dispatch that ran
//! for client `c` while `c` sat in `transport.call` is that call's child:
//! the probe parks one [`DispatchNote`] per client slot and the traced
//! loop collects it when the call returns.

use pc_rtree::proto::{Request, Response, ServerReply, VersionedReply};
use pc_rtree::NodeId;
use pc_server::{ClientId, ServerCore, ServerHandle, Transport, Update};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One in 64 envelopes is kept for the codec replay.
pub const ENVELOPE_SAMPLE: u64 = 64;

/// What one dispatch did, read off its reply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DispatchNote {
    /// Nanoseconds since the probe's clock origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request was a remainder (plain or versioned) that got a reply
    /// body; the counts below are zero otherwise.
    pub reply: bool,
    pub expansions: u64,
    pub objects: u64,
    pub confirmed: u64,
    pub index_bytes: u64,
    pub cells: u64,
}

pub struct Probe {
    inner: Arc<dyn ServerHandle>,
    origin: Instant,
    /// Slot `client % slots.len()`; the harness deals client ids so that
    /// concurrent clients never share a slot.
    slots: Vec<Mutex<Option<DispatchNote>>>,
    calls: AtomicU64,
    envelopes: Mutex<Vec<(ClientId, Request, Response)>>,
}

impl Probe {
    pub fn new(inner: Arc<dyn ServerHandle>, origin: Instant, clients: u32) -> Probe {
        Probe {
            inner,
            origin,
            slots: (0..clients.max(1)).map(|_| Mutex::new(None)).collect(),
            calls: AtomicU64::new(0),
            envelopes: Mutex::new(Vec::new()),
        }
    }

    fn slot(&self, client: ClientId) -> &Mutex<Option<DispatchNote>> {
        &self.slots[client as usize % self.slots.len()]
    }

    /// The note of `client`'s most recent dispatch, once.
    pub fn take(&self, client: ClientId) -> Option<DispatchNote> {
        self.slot(client)
            .lock()
            .expect("probe slot lock poisoned")
            .take()
    }

    /// The sampled envelopes, for the codec replay after the timed region.
    pub fn take_envelopes(&self) -> Vec<(ClientId, Request, Response)> {
        std::mem::take(&mut *self.envelopes.lock().expect("probe envelope lock poisoned"))
    }
}

fn note_reply(note: &mut DispatchNote, reply: &ServerReply) {
    note.reply = true;
    note.expansions = reply.expansions;
    note.objects = reply.objects.len() as u64;
    note.confirmed = reply.confirmed.len() as u64;
    note.index_bytes = reply.index_bytes();
    note.cells = reply.index.iter().map(|s| s.cells.len() as u64).sum();
}

impl Transport for Probe {
    fn call(&self, client: ClientId, req: Request) -> Response {
        // ordering: Relaxed — a sampling counter; it publishes nothing.
        let sampled = self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(ENVELOPE_SAMPLE);
        let kept_req = sampled.then(|| req.clone());
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let resp = self.inner.call(client, req);
        let mut note = DispatchNote {
            start_ns,
            end_ns: self.origin.elapsed().as_nanos() as u64,
            ..Default::default()
        };
        match &resp {
            Response::Remainder(reply) => note_reply(&mut note, reply),
            Response::Versioned(VersionedReply::Fresh { reply, .. }) => {
                note_reply(&mut note, reply)
            }
            _ => {}
        }
        *self.slot(client).lock().expect("probe slot lock poisoned") = Some(note);
        if let Some(req) = kept_req {
            self.envelopes
                .lock()
                .expect("probe envelope lock poisoned")
                .push((client, req, resp.clone()));
        }
        resp
    }
}

impl ServerHandle for Probe {
    fn core(&self) -> &ServerCore {
        self.inner.core()
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.inner.apply_updates(updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, pc_geom::Rect)>, u64) {
        self.inner.bootstrap_root()
    }

    fn log_records(&self) -> usize {
        self.inner.log_records()
    }
}
