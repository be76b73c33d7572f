//! Deterministic hostile-bytes regression suite for the wire layer.
//!
//! The `poem-lint` panic-safety rule forbids `unwrap`/`expect`/indexing in
//! `codec.rs`/`framing.rs`; these tests pin the behavioral contract behind
//! that rule: truncated, oversized, and garbage frames must come back as
//! clean `Err`/`None`, never a panic. Unlike the property suite in
//! `tests/prop_fuzz_decode.rs`, every case here is a fixed byte pattern, so
//! a regression fails reproducibly with a readable diff.

use poem_core::packet::Destination;
use poem_core::{ChannelId, EmuPacket, EmuTime, NodeId, PacketId, RadioId};
use poem_proto::messages::PROTOCOL_VERSION;
use poem_proto::{
    from_bytes, to_bytes, ClientMsg, CodecError, FrameDecoder, ServerMsg, MAX_FRAME_LEN,
};

fn sample_client_msgs() -> Vec<ClientMsg> {
    vec![
        ClientMsg::hello(NodeId(7)),
        ClientMsg::SyncRequest { t_c1: EmuTime::from_millis(41) },
        ClientMsg::Bye,
    ]
}

fn sample_server_msgs() -> Vec<ServerMsg> {
    vec![
        ServerMsg::Welcome {
            version: PROTOCOL_VERSION,
            node: NodeId(7),
            server_time: EmuTime::from_millis(5),
        },
        ServerMsg::Refused { reason: "duplicate".into() },
        ServerMsg::sync_reply(
            EmuTime::from_millis(1),
            EmuTime::from_millis(2),
            EmuTime::from_millis(3),
        ),
        ServerMsg::Shutdown,
        deliver_many(&[NodeId(2), NodeId(5), NodeId(9)]),
    ]
}

fn deliver_many(to: &[NodeId]) -> ServerMsg {
    ServerMsg::DeliverMany {
        to: to.to_vec(),
        packet: EmuPacket::new(
            PacketId(77),
            NodeId(1),
            Destination::Broadcast,
            ChannelId(1),
            RadioId(0),
            EmuTime::from_millis(4),
            vec![0xC3u8; 24],
        ),
        forwarded_at: EmuTime::from_millis(6),
    }
}

/// Every strict prefix of a valid encoding must decode to `Err`, and the
/// full encoding plus trailing garbage must report the trailing bytes.
#[test]
fn truncation_and_trailing_garbage_are_clean_errors() {
    for msg in sample_client_msgs() {
        let bytes = to_bytes(&msg).expect("encode");
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<ClientMsg>(&bytes[..cut]).is_err(),
                "strict prefix of len {cut} of {msg:?} decoded"
            );
        }
        let mut oversized = bytes;
        oversized.push(0xAA);
        assert_eq!(from_bytes::<ClientMsg>(&oversized), Err(CodecError::TrailingBytes(1)));
    }
    for msg in sample_server_msgs() {
        let bytes = to_bytes(&msg).expect("encode");
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<ServerMsg>(&bytes[..cut]).is_err(),
                "strict prefix of len {cut} of {msg:?} decoded"
            );
        }
        let mut oversized = bytes;
        oversized.push(0xAA);
        assert_eq!(from_bytes::<ServerMsg>(&oversized), Err(CodecError::TrailingBytes(1)));
    }
}

/// A hostile length prefix (u64::MAX string length inside a `Refused`
/// payload) must be rejected without attempting the allocation.
#[test]
fn absurd_length_prefix_is_rejected() {
    let valid = to_bytes(&ServerMsg::Refused { reason: "x".into() }).expect("encode");
    // Variant tag is a u32; the string length prefix follows it.
    let mut hostile = valid.clone();
    hostile[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
    match from_bytes::<ServerMsg>(&hostile) {
        Err(CodecError::BadLength(_) | CodecError::Eof) => {}
        other => panic!("expected BadLength/Eof, got {other:?}"),
    }
}

/// `DeliverMany`'s receiver list is a counted sequence in front of the
/// packet: a count the bytes cannot back — by one, or by 2³² — is a clean
/// error that allocates nothing for the phantom receivers, and an empty
/// list is a well-formed frame (the client fans it out to nobody).
#[test]
fn deliver_many_receiver_counts_are_checked_against_the_bytes() {
    let valid = to_bytes(&deliver_many(&[NodeId(2), NodeId(5)])).expect("encode");
    // Variant tag (u32), then the u64 receiver count.
    // (With three claimed and two sent, the third id is read out of the
    // packet's bytes and the frame runs dry further on.)
    for claimed in [3u64, 1 << 32, (1 << 32) + 1, u64::MAX] {
        let mut hostile = valid.clone();
        hostile[4..12].copy_from_slice(&claimed.to_le_bytes());
        let decoded = from_bytes::<ServerMsg>(&hostile);
        assert!(decoded.is_err(), "{claimed} receivers decoded as {decoded:?}");
    }
    // A count below the truth leaves the surplus ids to be misread as
    // packet bytes: still an error, not a shorter receiver list.
    let mut short = valid.clone();
    short[4..12].copy_from_slice(&1u64.to_le_bytes());
    assert!(from_bytes::<ServerMsg>(&short).is_err());

    let empty = deliver_many(&[]);
    let bytes = to_bytes(&empty).expect("encode");
    assert_eq!(from_bytes::<ServerMsg>(&bytes), Ok(empty));
}

/// Invalid enum variant tags, bool bytes and UTF-8 must all error cleanly.
#[test]
fn garbage_payloads_error_cleanly() {
    // Unknown variant index.
    assert!(from_bytes::<ClientMsg>(&u32::MAX.to_le_bytes()).is_err());
    // Sweep of repeated single-byte garbage at several lengths.
    for byte in [0x00u8, 0x01, 0x7F, 0x80, 0xFF] {
        for len in 0..48 {
            let bytes = vec![byte; len];
            let _ = from_bytes::<ClientMsg>(&bytes);
            let _ = from_bytes::<ServerMsg>(&bytes);
        }
    }
    // Invalid UTF-8 inside a Refused reason: tag 1 (Refused), len 2, 0xFF 0xFE.
    let mut bad_utf8 = 1u32.to_le_bytes().to_vec();
    bad_utf8.extend_from_slice(&2u64.to_le_bytes());
    bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
    assert_eq!(from_bytes::<ServerMsg>(&bad_utf8), Err(CodecError::BadUtf8));
}

/// The frame decoder must wait on short input, reject hostile lengths, and
/// survive garbage fed one byte at a time.
#[test]
fn frame_decoder_handles_hostile_prefixes() {
    // Fewer than 4 bytes: no frame yet, no panic.
    let mut d = FrameDecoder::new();
    d.feed(&[0x01, 0x02]);
    assert!(matches!(d.next_frame(), Ok(None)));

    // Length over the cap poisons the decoder with an error.
    let mut d = FrameDecoder::new();
    d.feed(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    assert!(d.next_frame().is_err());

    // A declared length larger than what has arrived just waits.
    let mut d = FrameDecoder::new();
    d.feed(&100u32.to_le_bytes());
    d.feed(&[0u8; 40]);
    assert!(matches!(d.next_frame(), Ok(None)));
    assert_eq!(d.pending(), 44);

    // Byte-at-a-time garbage: frames may pop, errors may poison — but the
    // decoder never panics and never yields an oversized frame body.
    let mut d = FrameDecoder::new();
    for (i, b) in (0u32..2048).zip((0u8..=255).cycle()) {
        d.feed(&[b.wrapping_mul(31).wrapping_add(i as u8)]);
        match d.next_frame() {
            Ok(Some(frame)) => assert!(frame.len() <= MAX_FRAME_LEN),
            Ok(None) => {}
            Err(_) => break,
        }
    }
}
