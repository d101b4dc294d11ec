//! Adversarial-wire robustness: every decoder must return an error (or a
//! benign value) on arbitrary bit streams — never panic, hang, or make an
//! unbounded allocation. Run against randomized fuzz inputs.

use intersect::comm::bits::BitBuf;
use intersect::comm::encode::{
    get_delta, get_gamma, get_gamma0, get_rice, BinomialSubsetCodec, EliasFanoSubsetCodec,
    RiceSubsetCodec,
};
use intersect::core::reconcile::Iblt;
use proptest::prelude::*;

fn buf_from(bits: &[bool]) -> BitBuf {
    bits.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn integer_decoders_never_panic(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        let buf = buf_from(&bits);
        let _ = get_gamma(&mut buf.reader());
        let _ = get_gamma0(&mut buf.reader());
        let _ = get_delta(&mut buf.reader());
        for b in [0usize, 4, 16] {
            let _ = get_rice(&mut buf.reader(), b);
        }
    }

    #[test]
    fn subset_decoders_never_panic(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        let buf = buf_from(&bits);
        let _ = RiceSubsetCodec::new(1 << 20, 64).decode(&mut buf.reader());
        let _ = EliasFanoSubsetCodec::new(1 << 20, 64).decode(&mut buf.reader());
        let _ = BinomialSubsetCodec::new(500, 16).decode(&mut buf.reader());
    }

    #[test]
    fn iblt_reader_never_panics_or_blows_up(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        let buf = buf_from(&bits);
        if let Ok(table) = Iblt::read(&mut buf.reader(), 40, 32, 1 << 16) {
            // Bounded allocation even on adversarial sizes.
            prop_assert!(table.cell_count() <= 3 * (1 << 16));
        }
    }

    #[test]
    fn subset_decoders_are_partial_inverses(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        // Anything that DOES decode must re-encode to a valid set.
        let buf = buf_from(&bits);
        if let Ok(set) = RiceSubsetCodec::new(1 << 16, 32).decode(&mut buf.reader()) {
            prop_assert!(set.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(set.iter().all(|&x| x < (1 << 16)));
            // Round-trip through encode.
            let codec = RiceSubsetCodec::new(1 << 16, 32);
            let re = codec.encode(&set);
            prop_assert_eq!(codec.decode(&mut re.reader()).unwrap(), set);
        }
    }
}

#[test]
fn truncations_of_valid_messages_fail_cleanly() {
    // Every strict prefix of a valid encoding must error, not panic.
    let codec = RiceSubsetCodec::new(1 << 20, 32);
    let set: Vec<u64> = (0..32u64).map(|i| i * 31_337).collect();
    let full = codec.encode(&set);
    for cut in 0..full.len() {
        let mut r = full.reader();
        let prefix = r.read_buf(cut).unwrap();
        // Either errors or decodes a (shorter) valid set — never panics.
        let _ = codec.decode(&mut prefix.reader());
    }
}
