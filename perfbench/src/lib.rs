//! The ReFloat repository benchmark (see `README.md` in this directory).

#![forbid(unsafe_code)]

pub mod attribution;
pub mod check;
pub mod cli;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod output;
pub mod replay;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workloads;
