//! Decoding robustness: arbitrary bytes fed to the codec, the framing
//! decoder and the routing-message parser must never panic — they return
//! clean errors (or `None`) on garbage. This is the "hostile input" side
//! of the wire layer: a buggy or malicious client can send anything.

use poem_core::EmuPacket;
use poem_proto::messages::{ClientMsg, ServerMsg};
use poem_proto::{from_bytes, FrameDecoder};
use poem_routing::msg::RoutingMsg;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = from_bytes::<ClientMsg>(&bytes);
        let _ = from_bytes::<ServerMsg>(&bytes);
        let _ = from_bytes::<EmuPacket>(&bytes);
        let _ = RoutingMsg::decode(&bytes);
    }

    #[test]
    fn frame_decoder_survives_arbitrary_chunking(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..16,
    ) {
        let mut d = FrameDecoder::new();
        for part in bytes.chunks(chunk) {
            d.feed(part);
            // Either yields frames, waits for more, or reports a hostile
            // length prefix — never panics.
            loop {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return Ok(()), // poisoned: connection drops
                }
            }
        }
    }

    #[test]
    fn corrupted_deliver_many_never_panics(
        receivers in prop::collection::vec(any::<u32>(), 0..12),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        use poem_core::{ChannelId, EmuTime, NodeId, PacketId, RadioId};
        let msg = ServerMsg::DeliverMany {
            to: receivers.into_iter().map(NodeId).collect(),
            packet: EmuPacket::new(
                PacketId(1),
                NodeId(1),
                poem_core::packet::Destination::Broadcast,
                ChannelId(1),
                RadioId(0),
                EmuTime::from_millis(1),
                payload,
            ),
            forwarded_at: EmuTime::from_millis(2),
        };
        let mut bytes = poem_proto::to_bytes(&msg).unwrap();
        prop_assert_eq!(from_bytes::<ServerMsg>(&bytes), Ok(msg));
        // One flipped byte anywhere (the receiver count included), then a
        // truncation: whatever comes out, it is a value or an error.
        let idx = flip_at % bytes.len();
        bytes[idx] = flip_to;
        let _ = from_bytes::<ServerMsg>(&bytes);
        bytes.truncate(cut % (bytes.len() + 1));
        let _ = from_bytes::<ServerMsg>(&bytes);
    }

    #[test]
    fn valid_prefix_with_flipped_byte_never_panics(
        seed_node in any::<u32>(),
        flip_at in 0usize..64,
        flip_to in any::<u8>(),
    ) {
        // Start from a valid encoding and corrupt one byte anywhere.
        let msg = ClientMsg::hello(poem_core::NodeId(seed_node));
        let mut bytes = poem_proto::to_bytes(&msg).unwrap();
        if bytes.is_empty() {
            return Ok(());
        }
        let idx = flip_at % bytes.len();
        bytes[idx] = flip_to;
        match from_bytes::<ClientMsg>(&bytes) {
            // Either it still decodes (the flip hit a don't-care bit or
            // produced another valid value) or errors cleanly.
            Ok(_) | Err(_) => {}
        }
    }
}
