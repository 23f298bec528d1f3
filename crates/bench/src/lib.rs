//! # cusp-bench: the evaluation harness
//!
//! One binary, `exhibits`, with one subcommand per table/figure of the
//! paper's evaluation (§V) and `all` for every one; see `DESIGN.md` for
//! the exhibit index and `EXPERIMENTS.md` for recorded results. Each
//! exhibit prints a human-readable table and writes a CSV under
//! `results/`.
//!
//! The shared pieces live here: the scaled-down stand-in inputs
//! ([`inputs`]), run helpers ([`runner`]), and table/CSV output
//! ([`report`]).

pub mod inputs;
pub mod report;
pub mod runner;

/// Simulated host counts standing in for the paper's {32, 64, 128}.
pub const HOST_COUNTS: [usize; 3] = [4, 8, 16];

/// The largest host count (the paper's "128 hosts" analogue).
pub const MAX_HOSTS: usize = 16;
