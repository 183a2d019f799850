//! Shared harness for the Leapfrog evaluation: a peak-tracking allocator
//! (Table 2's Memory column), row runners for every case study, and the
//! header-width pair behind the `ablation` binary's §4 gate.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod header_width;
pub mod rows;

pub use alloc_track::PeakAlloc;
pub use rows::{run_row_in, RowResult};
