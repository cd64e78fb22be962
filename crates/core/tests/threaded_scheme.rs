//! Encode/decode on several threads at once gives the bits of one thread.
//!
//! Every coded kernel runs on its calling thread; the parallelism of a
//! run is the TEE's lanes and the fleet's workers, which call one shared
//! `EncodingScheme` concurrently. Those concurrent calls must be
//! bit-identical to a call made alone, and the identity-op round trip
//! (decoding the encodings themselves) must give back the inputs.

use dk_core::scheme::EncodingScheme;
use dk_field::{F25, FieldRng, P25};
use dk_linalg::Workspace;

#[test]
fn threaded_encode_decode_bit_identical_to_serial() {
    // Wide enough that the streamed column chunks cross the 2^14 F25
    // fold boundary.
    let mut r = FieldRng::seed_from(0xC0DE);
    let (k, m, n) = (3, 2, 32_768);
    let scheme = EncodingScheme::generate(k, m, true, &mut r);
    let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
    let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(n)).collect();
    let enc_serial = scheme.encode(&inputs, &noise);
    let dec_serial = scheme.decode_forward_ws(&enc_serial, 0, &mut Workspace::new()).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut ws = Workspace::new();
                    let enc = scheme.encode_ws(&inputs, &noise, &mut ws);
                    let dec = scheme.decode_forward_ws(&enc, 0, &mut ws).unwrap();
                    (enc, dec)
                })
            })
            .collect();
        for h in handles {
            let (enc, dec) = h.join().unwrap();
            assert_eq!(enc, enc_serial);
            assert_eq!(dec, dec_serial);
        }
    });
    // Identity-op round trip: decoding the encodings recovers the inputs.
    assert_eq!(dec_serial, inputs);
}
