//! Golden digests of the codec's data path.
//!
//! Each digest is an FNV-1a hash over a stream's payload bytes, the
//! encoder's closed-loop reconstruction, the decoder's output and, for
//! inter frames, the full-size residual frame the NEMO baseline consumes.
//! The values were recorded from the per-pixel kernels (a clamped read per
//! tap in the chroma upsampler, one SAD pass per motion-search candidate,
//! libm rounding in the quantizer), so any change to the codec kernels
//! that is not bit-identical fails here, at any `GSS_THREADS`.

use gss_codec::{
    DecodeDetail, Decoder, EncodedFrame, Encoder, EncoderConfig, FrameType, RateControlConfig,
    RateController,
};
use gss_frame::Frame;
use gss_render::{GameId, GameWorkload};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_frame(mut h: u64, frame: &Frame) -> u64 {
    for plane in frame.planes() {
        for &v in plane.iter() {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Folds one coded frame into `h`: the packet, the encoder's reference
/// after coding it, the decoder's picture and, for inter frames, the
/// full-size residual.
fn hash_step(h: u64, packet: &EncodedFrame, enc: &Encoder, dec: &mut Decoder) -> u64 {
    let mut h = fnv(h, &[packet.frame_type as u8]);
    h = fnv(h, &packet.payload);
    h = hash_frame(h, enc.reference().expect("the encoder holds a reference"));
    let decoded = dec.decode(packet).expect("the stream decodes");
    h = hash_frame(h, &decoded.frame);
    if let DecodeDetail::Inter { residual, .. } = decoded.detail {
        h = hash_frame(h, &residual.into_frame());
    }
    h
}

/// Camera-path frames of each game's stream: one keyframe and four inter
/// frames, spaced so the motion search has real displacement to find.
const FRAMES: [usize; 5] = [0, 4, 8, 12, 16];

fn game_digest(id: GameId) -> u64 {
    let workload = GameWorkload::new(id);
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut dec = Decoder::new();
    FRAMES.iter().fold(FNV_OFFSET, |h, &t| {
        let frame = workload.render_frame(t, 640, 360).frame;
        let packet = enc.encode(&frame).expect("even frame size");
        hash_step(h, &packet, &enc, &mut dec)
    })
}

#[test]
fn comparison_size_640x360_streams_are_bit_identical() {
    let got: Vec<u64> = GameId::ALL.iter().map(|&id| game_digest(id)).collect();
    assert_eq!(
        got,
        vec![
            0xc3b9fd044d5dc094,
            0x282d0ea2efad0430,
            0x9d5bfd1945915d8e,
            0x4a68639273e4a28c,
            0x48b456fc6c5caba9,
            0xc3c3c7dd2e423970,
            0x934b199cfac8ddd6,
            0x7032da71bbb63964,
            0x13201cd5c4ac9ac8,
            0x83c35b30e51ebe50,
        ],
        "640x360 stream digests changed"
    );
}

#[test]
fn rate_controlled_128x72_stream_is_bit_identical() {
    // a short GOP and a tight budget move both quantizers every frame
    let workload = GameWorkload::new(GameId::G3);
    let start = EncoderConfig {
        gop_size: 6,
        ..EncoderConfig::default()
    };
    let mut enc = Encoder::new(start);
    let mut rc = RateController::new(RateControlConfig::for_bitrate_mbps(0.4), &start);
    let mut dec = Decoder::new();
    let mut h = FNV_OFFSET;
    for t in 0..14 {
        let (quality, residual_step) = rc.quantizers();
        enc.set_quantizers(quality, residual_step);
        let frame = workload.render_frame(t * 3, 128, 72).frame;
        let packet = enc.encode(&frame).expect("even frame size");
        rc.observe(packet.size_bytes(), packet.frame_type == FrameType::Intra);
        h = fnv(h, &[quality, residual_step as u8]);
        h = hash_step(h, &packet, &enc, &mut dec);
    }
    assert_eq!(
        h, 0xa0200f7cb38cdb23,
        "128x72 rate-controlled digest changed"
    );
}
