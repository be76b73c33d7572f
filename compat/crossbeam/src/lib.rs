//! Offline shim for the subset of `crossbeam` that poem-rs uses:
//! MPMC channels (`crossbeam::channel`). Built on `std::sync`.

#![forbid(unsafe_code)]

pub mod channel;
