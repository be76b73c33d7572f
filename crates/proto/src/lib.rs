//! # poem-proto — the PoEm client↔server wire protocol
//!
//! PoEm's portability claim rests on using nothing below TCP/IP: "both the
//! server software and the client software can run on any hardware platform
//! since they are connected through TCP/IP connections independent of low
//! layers" (§3.1). This crate is that connection layer:
//!
//! * [`codec`] — a compact, non-self-describing binary serde format
//!   (fixed-width little-endian scalars, length-prefixed sequences)
//!   implemented from scratch; every message and record in the workspace is
//!   encoded with it.
//! * [`messages`] — the client→server and server→client message sets,
//!   including the Fig. 5 clock-synchronization handshake.
//! * [`framing`] — length-prefixed frames over any byte stream, with a
//!   non-blocking feed-style decoder for stream reassembly.
//! * [`pipe`] — an in-memory blocking byte pipe implementing
//!   `Read`/`Write`, so the full framing+codec path can be exercised
//!   without sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod framing;
pub mod messages;
pub mod pipe;

pub use codec::{from_bytes, to_bytes, to_bytes_into, CodecError};
pub use framing::{
    encode_frame, encode_frame_into, FrameDecoder, MsgReader, MsgWriter, MAX_FRAME_LEN,
};
pub use messages::{
    ClientMsg, ClusterMsg, PacketDecisions, ServerMsg, TargetDecision, WireDecision,
    PROTOCOL_VERSION,
};
