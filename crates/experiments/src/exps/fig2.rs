//! Figure 2: performance of dynamic Gnutella at hops = 4.
//!
//! Expected shape (paper): with the larger exploration radius (up to 160
//! nodes per query) the dynamic approach finds beneficial neighbors much
//! faster — more hits than static *and* roughly half the message overhead.

use super::fig1::hourly_figure;
use crate::emit::Emitter;
use crate::opts::ExpOptions;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    hourly_figure(opts, em, 2, 4);
}
