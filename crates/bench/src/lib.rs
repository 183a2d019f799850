//! Shared harness for the Leapfrog evaluation: a peak-tracking allocator
//! (Table 2's Memory column), row runners for every case study, and scaled
//! -down fixtures for the ablation benchmarks.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod rows;

pub use alloc_track::PeakAlloc;
pub use rows::{run_row, RowResult};
