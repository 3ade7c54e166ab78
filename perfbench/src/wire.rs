//! The benchmark's wrappers around the program's frame transports: a
//! server/worker-side `FrameTransport` that times how long each request
//! keeps the peer busy, and a client-side endpoint that times its own
//! frame codec and counts bytes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fedl_serve::{decode_frame, encode_frame, FrameTransport, Message, ProtocolError};

use crate::measure::ms_since;

/// Busy milliseconds per handled request, in arrival order.
pub type BusyLog = Arc<Mutex<Vec<f64>>>;

/// Server-side transport wrapper: a request's busy time runs from the
/// moment its frame was received to the moment the reply is handed
/// back for sending (decode + handle + encode inside the peer).
pub struct BusyTransport<T> {
    inner: T,
    log: Option<BusyLog>,
    received: Option<Instant>,
}

impl<T: FrameTransport> BusyTransport<T> {
    /// Wraps `inner`; records into `log` when one is given (traced runs).
    pub fn new(inner: T, log: Option<BusyLog>) -> Self {
        Self { inner, log, received: None }
    }
}

impl<T: FrameTransport> FrameTransport for BusyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        if let (Some(log), Some(t)) = (&self.log, self.received.take()) {
            log.lock().expect("busy log lock").push(ms_since(t));
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let frame = self.inner.recv();
        self.received = Some(Instant::now());
        frame
    }
}

/// Codec time and bytes of one request/reply exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameStats {
    /// Encoding the request, microseconds.
    pub encode_us: f64,
    /// Decoding the reply, microseconds.
    pub decode_us: f64,
    /// Request + reply frame bytes.
    pub bytes: usize,
}

/// Client end of a frame connection that times its own codec.
pub struct Endpoint<T> {
    transport: T,
    /// The most recent exchange's codec time and bytes.
    pub last: FrameStats,
}

impl<T: FrameTransport> Endpoint<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        Self { transport, last: FrameStats::default() }
    }

    /// Encodes and sends one request.
    pub fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let t = Instant::now();
        let frame = encode_frame(msg);
        self.last = FrameStats { encode_us: ms_since(t) * 1e3, decode_us: 0.0, bytes: frame.len() };
        self.transport.send(&frame)
    }

    /// Receives and decodes the reply to the last request.
    pub fn recv(&mut self) -> Result<Message, ProtocolError> {
        let frame = self
            .transport
            .recv()?
            .ok_or_else(|| ProtocolError::Io { detail: "peer closed mid-request".into() })?;
        let t = Instant::now();
        let msg = decode_frame(&frame)?;
        self.last.decode_us = ms_since(t) * 1e3;
        self.last.bytes += frame.len();
        Ok(msg)
    }

    /// One request/reply; a wire `Error` reply is a refusal.
    pub fn rpc(&mut self, msg: &Message) -> Result<Message, String> {
        self.send(msg).map_err(|e| e.to_string())?;
        match self.recv().map_err(|e| e.to_string())? {
            Message::Error { code, detail } => Err(format!("refused ({code}): {detail}")),
            reply => Ok(reply),
        }
    }
}
