//! The wire form of a field vector: one little-endian `u32` lane per
//! value, in order.
//!
//! Both directions are single branch-free passes compiled once per
//! vector tier, like the quantize and dequantize passes of
//! [`crate::quant`]. [`unpack_lanes`] is where bytes from outside the
//! enclave become field elements, so it checks every lane but does not
//! stop at a bad one: it keeps one "≥ p" flag over the whole slice,
//! writes zero in place of any lane that fails, and only when the flag
//! is set scans the bytes again to name the first bad value. A
//! canonical value fits its lane because every [`Fp`] modulus is below
//! `2^31`.

use crate::fp::Fp;
use crate::tier::{Body, Tier, Width};

/// Appends `vals` to `out`, four little-endian bytes per value.
pub fn pack_lanes<const P: u64>(vals: &[Fp<P>], out: &mut Vec<u8>) {
    pack_lanes_on(Tier::best(), vals, out);
}

fn pack_lanes_on<const P: u64>(tier: Tier, vals: &[Fp<P>], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + 4 * vals.len(), 0);
    tier.run(Pack { vals, out: &mut out[start..] });
}

/// Appends one value per little-endian lane of `bytes` to `out` (a
/// trailing partial lane is ignored). Each value is written once, so a
/// fresh buffer is never zeroed first.
///
/// # Errors
///
/// The first lane's value that is not below `P`; what was appended is
/// then unspecified (but canonical).
pub fn unpack_lanes<const P: u64>(bytes: &[u8], out: &mut Vec<Fp<P>>) -> Result<(), u64> {
    unpack_lanes_on(Tier::best(), bytes, out)
}

fn unpack_lanes_on<const P: u64>(
    tier: Tier,
    bytes: &[u8],
    out: &mut Vec<Fp<P>>,
) -> Result<(), u64> {
    let lanes = bytes.as_chunks::<4>().0;
    if tier.run(Unpack { lanes, out }) {
        return Ok(());
    }
    let first_bad = lanes.iter().map(|&l| u64::from(u32::from_le_bytes(l))).find(|&v| v >= P);
    Err(first_bad.unwrap_or(P))
}

struct Pack<'a, const P: u64> {
    vals: &'a [Fp<P>],
    out: &'a mut [u8],
}

impl<const P: u64> Body for Pack<'_, P> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        for (lane, v) in self.out.as_chunks_mut::<4>().0.iter_mut().zip(self.vals) {
            *lane = (v.value() as u32).to_le_bytes();
        }
    }
}

/// Returns whether every lane held a canonical value.
struct Unpack<'a, const P: u64> {
    lanes: &'a [[u8; 4]],
    out: &'a mut Vec<Fp<P>>,
}

impl<const P: u64> Body for Unpack<'_, P> {
    type Out = bool;

    #[inline(always)]
    fn run<W: Width>(self, _: W) -> bool {
        let mut over = 0u32;
        self.out.extend(self.lanes.iter().map(|&lane| {
            let raw = u32::from_le_bytes(lane);
            let bad = u32::from(raw >= P as u32);
            over |= bad;
            // A failing lane is never made an element: zero stands in.
            Fp::from_canonical(u64::from(raw & bad.wrapping_sub(1)))
        }));
        over == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{F25, P25};

    fn lanes_of(raw: &[u32]) -> Vec<u8> {
        raw.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Both passes are the per-value definitions on every tier, at
    /// lengths around every vector width; a bad lane first, in the
    /// middle or last is the error naming the first one.
    #[test]
    fn lane_passes_are_the_per_value_definition_on_every_tier() {
        for tier in Tier::offered() {
            for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 31, 33, 64, 100] {
                let raw: Vec<u32> =
                    (0..n as u64).map(|i| ((i * 2_654_435_761) % P25) as u32).collect();
                let vals: Vec<F25> = raw.iter().map(|&v| F25::new(u64::from(v))).collect();
                let mut packed = vec![0xEE];
                pack_lanes_on(tier, &vals, &mut packed);
                assert_eq!(packed[1..], lanes_of(&raw), "{tier:?} n={n}");
                assert_eq!(packed[0], 0xEE, "pack appends");

                let mut got = vec![F25::new(5)];
                assert_eq!(unpack_lanes_on(tier, &packed[1..], &mut got), Ok(()));
                assert_eq!(got[0], F25::new(5), "unpack appends");
                assert_eq!(got[1..], vals, "{tier:?} n={n}");

                for at in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|_| n > 0) {
                    for bad in [P25 as u32, P25 as u32 + 38, 1 << 25, u32::MAX] {
                        let mut lied = raw.clone();
                        lied[at] = bad;
                        if at + 1 < n {
                            lied[n - 1] = u32::MAX - 1; // a later bad lane is not the one named
                        }
                        got.clear();
                        let err = unpack_lanes_on(tier, &lanes_of(&lied), &mut got);
                        assert_eq!(err, Err(u64::from(bad)), "{tier:?} n={n} at={at}");
                        assert!(got.iter().all(|v| v.value() < P25));
                    }
                }
            }
        }
    }
}
