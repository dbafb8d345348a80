//! # rental-persist
//!
//! Crash-safe persistence for the serving controllers: the storage layer
//! behind `rental-fleet`'s checkpoint/resume path.
//!
//! The workspace is offline (no serde, no crates.io), so everything here is
//! hand-rolled and dependency-free:
//!
//! * [`codec`] — a versioned little-endian binary codec. [`Encoder`] writes
//!   primitives, options and length-prefixed sequences into a byte buffer;
//!   [`Decoder`] reads them back with explicit [`DecodeError`]s instead of
//!   panics, so a corrupted payload can never take the process down.
//! * [`crc`] — the standard CRC-32 (IEEE 802.3, reflected polynomial
//!   `0xEDB8_8320`), computed slicing-by-8. Every record frame carries the
//!   checksum of its payload.
//! * [`store`] — a [`Store`] over one directory holding epoch-granular
//!   **snapshot** files plus a single append-only **write-ahead journal**.
//!   Records are framed as `[len u32][crc32 u32][payload]`; recovery walks
//!   the journal front to back, stops at the first short or checksum-failing
//!   frame (a torn write or tail corruption), **truncates** the invalid
//!   suffix and falls back to the newest frame-valid snapshot. Snapshots are
//!   written to a temporary file and renamed into place, so a crash during a
//!   snapshot write can never destroy the previous one.
//!
//! What the bytes *mean* is the caller's business: `rental-fleet` maps its
//! controller state through this codec and owns the replay logic. This crate
//! only guarantees that whatever was durably framed comes back bit-identical
//! or is reported as lost — never silently mangled.

pub mod codec;
pub mod crc;
pub mod store;

pub use codec::{DecodeError, Decoder, Encoder};
pub use crc::crc32;
pub use store::{JournalAppender, Recovery, Snapshot, Store};
