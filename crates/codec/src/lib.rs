//! A block-based hybrid video codec for the GameStreamSR reproduction.
//!
//! The paper's baseline (NEMO) requires access to codec internals — motion
//! vectors and residuals of non-reference frames — which is why it must use a
//! software VP9 decoder on the CPU, while GameStreamSR itself treats the
//! codec as a black box and can use the hardware decoder. To reproduce both
//! designs and the bitrate/quality dynamics between them, this crate
//! implements a real (if simplified) hybrid codec in the H.26x/VP9 mold:
//!
//! * **Intra (reference/key) frames** — per-block spatial prediction
//!   (DC / horizontal / vertical, H.26x-style), 8x8 type-II DCT of the
//!   prediction residual, JPEG-style quantization, zigzag + run-length +
//!   exponential-Golomb entropy coding.
//! * **Inter (non-reference) frames** — 16x16-macroblock motion estimation
//!   (three-step search) against the previously *reconstructed* frame
//!   (closed-loop), DCT-coded residuals, per-macroblock motion vectors.
//! * **4:2:0 chroma** — chroma planes are subsampled before coding, like
//!   every deployed streaming codec.
//! * **GOP structure** — one intra frame followed by `gop_size − 1` inter
//!   frames; the paper's client streams use a GOP of 60 (one keyframe per
//!   second at 60 FPS).
//!
//! The bitstream is a real, decodable byte stream (not just a size
//! estimate), so encoded-frame sizes give honest bandwidth numbers and the
//! decoder exposes exactly the internals ([`DecodeDetail`]) NEMO consumes.
//! It builds them only for the consumers that need them: an inter frame's
//! [`Residual`] stays on the coded grid (luma plus 4:2:0 chroma), and its
//! full-size frame, with two chroma upsamples, is made only when NEMO or
//! the SR-integrated decoder calls [`Residual::into_frame`].
//!
//! The motion search scores each step's eight candidates in one pass over
//! the block when they lie inside the reference. Every candidate keeps its
//! own `f64` SAD accumulator and adds its terms in raster order, as a
//! separate SAD would, so the chosen vectors are the same bits.
//!
//! ```
//! use gss_codec::{Decoder, Encoder, EncoderConfig};
//! use gss_frame::Frame;
//!
//! let mut enc = Encoder::new(EncoderConfig::default());
//! let mut dec = Decoder::new();
//! let frame = Frame::filled(64, 32, [120.0, 128.0, 128.0]);
//! let packet = enc.encode(&frame).unwrap();
//! let decoded = dec.decode(&packet).unwrap();
//! assert_eq!(decoded.frame.size(), (64, 32));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod dct;
mod decoder;
mod encoder;
mod entropy;
mod error;
mod intra;
mod motion;
mod quant;
mod rate;

pub use bits::{BitReader, BitWriter};
pub use dct::{dct8_forward, dct8_inverse, Block8};
pub use decoder::{DecodeDetail, DecodedFrame, Decoder, Residual};
pub use encoder::{upsample2_bilinear, EncodedFrame, Encoder, EncoderConfig, FrameType};
pub use entropy::{decode_plane, encode_plane};
pub use error::CodecError;
pub use intra::{decode_plane_intra, encode_plane_intra, IntraMode};
pub use motion::{compensate, estimate_motion, MotionField, MotionVector, MB_SIZE};
pub use quant::{dequantize, quantize, QuantMatrix};
pub use rate::{RateControlConfig, RateController};
