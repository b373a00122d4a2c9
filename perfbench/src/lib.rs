//! Closed-loop benchmark of the Helios simulator.
//!
//! One process runs one workload (see [`workload::Workload`]): episodes
//! of back-to-back aggregation cycles, each driven through
//! `RoundDriver::run` under a timing wrapper ([`timing::Timed`]) that
//! stamps cycle boundaries and checks every cycle's outputs
//! ([`episode`]). See `README.md` next to this crate for the metrics.

#![deny(unsafe_code)]

pub mod episode;
pub mod host;
pub mod stats;
pub mod timing;
pub mod workload;
