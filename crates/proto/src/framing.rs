//! Length-prefixed framing over byte streams.
//!
//! Every protocol message travels as one frame: a 4-byte little-endian
//! length followed by the codec-encoded message body. [`MsgWriter`] /
//! [`MsgReader`] wrap blocking `Write`/`Read` halves (a `TcpStream` and its
//! `try_clone`, or an in-memory [`crate::pipe`]); [`FrameDecoder`] is a
//! feed-style reassembler for callers that manage their own buffers.

use crate::codec::{from_bytes, to_bytes_into, CodecError};
use bytes::{Buf, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read, Write};

/// Upper bound on a frame body, guarding against corrupt or hostile length
/// prefixes. Generously above any real PoEm message (packets are MTU-ish).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

fn codec_err(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Encodes one message as a complete frame (length prefix + body).
pub fn encode_frame<T: Serialize>(msg: &T) -> io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, msg)?;
    Ok(frame)
}

/// Appends one message as a complete frame (length prefix + body) to
/// `out`, for callers that manage their own write buffers — the server
/// reactor encodes straight into per-connection output buffers, and
/// [`MsgWriter`] into one it reuses. On error `out` is left as it was.
pub fn encode_frame_into<T: Serialize>(out: &mut Vec<u8>, msg: &T) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let encoded = to_bytes_into(out, msg).map_err(codec_err).and_then(|()| {
        let len = out.len() - start - 4;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
        }
        if let Some(prefix) = out.get_mut(start..start + 4) {
            prefix.copy_from_slice(&(len as u32).to_le_bytes());
        }
        Ok(())
    });
    if encoded.is_err() {
        out.truncate(start);
    }
    encoded
}

/// Writes framed messages to a byte sink.
#[derive(Debug)]
pub struct MsgWriter<W: Write> {
    w: W,
    /// Encoded frames not yet handed to the sink; kept for its allocation.
    frames: Vec<u8>,
}

impl<W: Write> MsgWriter<W> {
    /// Wraps a sink.
    pub fn new(w: W) -> Self {
        MsgWriter { w, frames: Vec::new() }
    }

    /// Encodes one message behind whatever is already queued, without
    /// touching the sink. A message that fails to encode leaves the queue
    /// as it was.
    pub fn queue<T: Serialize>(&mut self, msg: &T) -> io::Result<()> {
        encode_frame_into(&mut self.frames, msg)
    }

    /// Bytes queued and not yet written.
    pub fn queued(&self) -> usize {
        self.frames.len()
    }

    /// Hands every queued frame to the sink in a single `write_all` — on
    /// an unbuffered `TCP_NODELAY` socket that is one syscall however
    /// many messages were queued — then flushes the sink. Nothing queued
    /// is nothing written. The queue is empty afterwards either way: a
    /// failed write means a broken stream, not bytes to retry.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.frames.is_empty() {
            return Ok(());
        }
        let written = self.w.write_all(&self.frames);
        self.frames.clear();
        written?;
        self.w.flush()
    }

    /// Encodes one message and writes it at once (behind anything still
    /// queued, in the same `write_all`): one message, one write.
    pub fn send<T: Serialize>(&mut self, msg: &T) -> io::Result<()> {
        self.queue(msg)?;
        self.flush()
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Reads framed messages from a byte source.
#[derive(Debug)]
pub struct MsgReader<R: Read> {
    r: R,
    buf: Vec<u8>,
}

impl<R: Read> MsgReader<R> {
    /// Wraps a source.
    pub fn new(r: R) -> Self {
        MsgReader { r, buf: Vec::new() }
    }

    /// Blocks until one full message arrives and decodes it.
    ///
    /// Returns `ErrorKind::UnexpectedEof` if the stream closes mid-frame
    /// (or before a frame starts — callers distinguish clean shutdown by
    /// protocol, e.g. receiving `Bye`/`Shutdown` first).
    pub fn recv<T: DeserializeOwned>(&mut self) -> io::Result<T> {
        let mut len_bytes = [0u8; 4];
        self.r.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds cap"));
        }
        self.buf.resize(len, 0);
        self.r.read_exact(&mut self.buf)?;
        from_bytes(&self.buf).map_err(codec_err)
    }

    /// Consumes the reader, returning the source.
    pub fn into_inner(self) -> R {
        self.r
    }
}

/// Feed-style frame reassembler: push arbitrary byte chunks in, pull
/// complete frame bodies out.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame body, if one has fully arrived.
    ///
    /// Returns `Err` on a length prefix over [`MAX_FRAME_LEN`]; the decoder
    /// is then poisoned and the connection should be dropped.
    pub fn next_frame(&mut self) -> io::Result<Option<BytesMut>> {
        let Some(prefix) = self.buf.get(..4).and_then(|p| <[u8; 4]>::try_from(p).ok()) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds cap"));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len)))
    }

    /// Decodes the next complete frame as `T`, if available.
    pub fn next_msg<T: DeserializeOwned>(&mut self) -> io::Result<Option<T>> {
        match self.next_frame()? {
            Some(body) => from_bytes(&body).map(Some).map_err(codec_err),
            None => Ok(None),
        }
    }

    /// Bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ClientMsg, ServerMsg};
    use poem_core::{EmuTime, NodeId};
    use std::io::Cursor;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = MsgWriter::new(Vec::new());
        let msgs = vec![
            ClientMsg::hello(NodeId(1)),
            ClientMsg::SyncRequest { t_c1: EmuTime::from_millis(9) },
            ClientMsg::Bye,
        ];
        for m in &msgs {
            w.send(m).unwrap();
        }
        let bytes = w.into_inner();
        let mut r = MsgReader::new(Cursor::new(bytes));
        for m in &msgs {
            let got: ClientMsg = r.recv().unwrap();
            assert_eq!(&got, m);
        }
        // Stream exhausted → UnexpectedEof.
        let err = r.recv::<ClientMsg>().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A sink that counts `write` calls, taking at most `max` bytes each.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
        max: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.max);
            self.bytes.extend_from_slice(&buf[..n]);
            self.writes += 1;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_message_is_one_write_with_unchanged_bytes() {
        let msgs = [
            ClientMsg::hello(NodeId(1)),
            ClientMsg::SyncRequest { t_c1: EmuTime::from_millis(9) },
            ClientMsg::Bye,
        ];
        let mut w = MsgWriter::new(CountingSink { bytes: Vec::new(), writes: 0, max: usize::MAX });
        let mut want = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            w.send(m).unwrap();
            // The wire format: 4-byte little-endian body length, body.
            let body = crate::codec::to_bytes(m).unwrap();
            want.extend_from_slice(&(body.len() as u32).to_le_bytes());
            want.extend_from_slice(&body);
            let sink = &w.w;
            assert_eq!(sink.writes, i + 1, "length prefix and body leave in one write");
            assert_eq!(sink.bytes, want);
        }

        // A sink that takes a few bytes at a time still gets every byte.
        let mut w = MsgWriter::new(CountingSink { bytes: Vec::new(), writes: 0, max: 3 });
        for m in &msgs {
            w.send(m).unwrap();
        }
        assert_eq!(w.into_inner().bytes, want);
    }

    #[test]
    fn queued_messages_leave_in_one_write_and_send_is_still_one() {
        let msgs: Vec<ClientMsg> = (0..50u32).map(|i| ClientMsg::hello(NodeId(i))).collect();
        let mut w = MsgWriter::new(CountingSink { bytes: Vec::new(), writes: 0, max: usize::MAX });
        let mut want = Vec::new();
        for m in &msgs {
            w.queue(m).unwrap();
            want.extend_from_slice(&encode_frame(m).unwrap());
        }
        assert_eq!(w.w.writes, 0, "queueing never touches the sink");
        assert_eq!(w.queued(), want.len());
        w.flush().unwrap();
        assert_eq!(w.queued(), 0);
        assert_eq!(w.w.writes, 1, "{} queued frames, one write", msgs.len());
        assert_eq!(w.w.bytes, want);
        w.flush().unwrap();
        assert_eq!(w.w.writes, 1, "an empty queue writes nothing");

        // `send` behind queued frames: still one write, order kept.
        w.queue(&ClientMsg::Bye).unwrap();
        w.send(&ClientMsg::hello(NodeId(99))).unwrap();
        assert_eq!(w.w.writes, 2);
        want.extend_from_slice(&encode_frame(&ClientMsg::Bye).unwrap());
        want.extend_from_slice(&encode_frame(&ClientMsg::hello(NodeId(99))).unwrap());
        assert_eq!(w.w.bytes, want);

        // A message that cannot be encoded leaves the queue as it was.
        w.queue(&ClientMsg::Bye).unwrap();
        let huge = ServerMsg::Refused { reason: "x".repeat(MAX_FRAME_LEN) };
        assert!(w.queue(&huge).is_err());
        w.flush().unwrap();
        want.extend_from_slice(&encode_frame(&ClientMsg::Bye).unwrap());
        assert_eq!(w.into_inner().bytes, want);
    }

    /// A source that counts `read` calls.
    struct CountingSource {
        bytes: Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingSource {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// What the shard worker relies on: frames that left in one write are
    /// consumed through a `BufReader` in a read or two, not two per frame.
    #[test]
    fn buffered_reader_consumes_a_flushed_queue_in_at_most_two_reads() {
        const N: u32 = 200;
        let mut w = MsgWriter::new(Vec::new());
        for i in 0..N {
            w.queue(&ClientMsg::hello(NodeId(i))).unwrap();
        }
        w.flush().unwrap();
        let bytes = w.into_inner();
        assert!(bytes.len() < 8 * 1024, "fits the default BufReader capacity");

        let source = CountingSource { bytes: Cursor::new(bytes.clone()), reads: 0 };
        let mut r = MsgReader::new(io::BufReader::new(source));
        for i in 0..N {
            assert_eq!(r.recv::<ClientMsg>().unwrap(), ClientMsg::hello(NodeId(i)));
        }
        assert!(r.r.get_ref().reads <= 2, "{} reads", r.r.get_ref().reads);

        // Unbuffered, the same stream costs two reads per frame.
        let mut r = MsgReader::new(CountingSource { bytes: Cursor::new(bytes), reads: 0 });
        for _ in 0..N {
            r.recv::<ClientMsg>().unwrap();
        }
        assert_eq!(r.r.reads, 2 * N as usize);
    }

    #[test]
    fn encode_frame_into_appends_and_undoes_a_failed_frame() {
        let mut out = b"kept".to_vec();
        encode_frame_into(&mut out, &ClientMsg::Bye).unwrap();
        assert_eq!(&out[..4], b"kept");
        assert_eq!(out[4..], encode_frame(&ClientMsg::Bye).unwrap());
        // A body over the frame cap is refused and leaves no trace.
        let before = out.clone();
        let huge = ServerMsg::Refused { reason: "x".repeat(MAX_FRAME_LEN) };
        assert_eq!(
            encode_frame_into(&mut out, &huge).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(out, before);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut w = MsgWriter::new(Vec::new());
        w.send(&ClientMsg::hello(NodeId(1))).unwrap();
        let mut bytes = w.into_inner();
        bytes.truncate(bytes.len() - 1);
        let mut r = MsgReader::new(Cursor::new(bytes));
        assert_eq!(r.recv::<ClientMsg>().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = MsgReader::new(Cursor::new(bytes));
        assert_eq!(r.recv::<ClientMsg>().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_reassembles_split_chunks() {
        let mut w = MsgWriter::new(Vec::new());
        w.send(&ServerMsg::Shutdown).unwrap();
        w.send(&ServerMsg::Refused { reason: "x".into() }).unwrap();
        let bytes = w.into_inner();

        let mut d = FrameDecoder::new();
        let mut out: Vec<ServerMsg> = Vec::new();
        // Feed one byte at a time — worst-case fragmentation.
        for b in &bytes {
            d.feed(std::slice::from_ref(b));
            while let Some(m) = d.next_msg::<ServerMsg>().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, vec![ServerMsg::Shutdown, ServerMsg::Refused { reason: "x".into() }]);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn decoder_handles_coalesced_frames() {
        let mut w = MsgWriter::new(Vec::new());
        for i in 0..10u32 {
            w.send(&ClientMsg::hello(NodeId(i))).unwrap();
        }
        let mut d = FrameDecoder::new();
        d.feed(&w.into_inner());
        let mut n = 0;
        while let Some(ClientMsg::Hello { node, .. }) = d.next_msg::<ClientMsg>().unwrap() {
            assert_eq!(node, NodeId(n));
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn decoder_rejects_hostile_prefix() {
        let mut d = FrameDecoder::new();
        d.feed(&u32::MAX.to_le_bytes());
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn empty_decoder_yields_nothing() {
        let mut d = FrameDecoder::new();
        assert!(d.next_frame().unwrap().is_none());
        d.feed(&[1, 0]);
        assert!(d.next_frame().unwrap().is_none(), "partial length prefix");
    }
}
