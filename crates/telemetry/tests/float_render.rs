//! Differential test of the journal's float renderer against std's `{}`,
//! the spelling it must reproduce digit for digit. The oracle differs
//! from `{}` only where the journal says so: `-0.0` is `0` and non-finite
//! values are `null`.

use capgpu_telemetry::journal::push_json_f64;

fn oracle(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == 0.0 {
        "0".into()
    } else {
        format!("{v}")
    }
}

/// Renders `v` both ways, into a reused buffer as the journal does.
fn check(buf: &mut String, v: f64) {
    buf.clear();
    push_json_f64(buf, v);
    assert_eq!(*buf, oracle(v), "bits {:#018x}", v.to_bits());
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn random_bit_patterns_match_std() {
    let (mut rng, mut buf) = (Rng(1), String::new());
    for _ in 0..1_000_000 {
        check(&mut buf, f64::from_bits(rng.next()));
    }
    // The same count again with the exponent drawn from the range the
    // shortest-digit path takes (biased 894..1077, 1e-38 to 2^54), where
    // uniform bits land less than a tenth of the time.
    for _ in 0..1_000_000 {
        let bits = rng.next();
        let exp = 894 + (bits >> 52) % (1077 - 894);
        check(
            &mut buf,
            f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF | exp << 52),
        );
    }
}

#[test]
fn log_uniform_values_of_both_signs_match_std() {
    let (mut rng, mut buf) = (Rng(2), String::new());
    for i in 0..1_000_000 {
        let v = 10f64.powf(-3.0 + 8.0 * rng.unit());
        check(&mut buf, if i % 2 == 0 { v } else { -v });
    }
}

/// Values whose exact decimal sits halfway between two shortest
/// candidates: std rounds such a tie up (`1658206780088562.25` prints
/// `…562.3`), where Ryu would round to even.
#[test]
fn ties_round_half_up_as_std_does() {
    let mut buf = String::new();
    // 1658206780088562.25, exactly.
    check(&mut buf, 1_658_206_780_088_562.0 + 0.25);
    assert_eq!(buf, "1658206780088562.3");
    for e in 40..53 {
        let base = (1u64 << e) as f64;
        for k in 0..64u32 {
            for denom in [8.0, 4.0, 2.0] {
                let v = base + f64::from(k) / denom;
                check(&mut buf, v);
                check(&mut buf, -v);
            }
        }
    }
}

#[test]
fn short_decimals_match_std() {
    let mut buf = String::new();
    let mut rng = Rng(3);
    for s in 1..=17 {
        let scale = 10f64.powi(s);
        for d in (0..2_000).chain((0..2_000).map(|_| rng.next() >> 11)) {
            check(&mut buf, d as f64 / scale);
            check(&mut buf, -(d as f64) / scale);
        }
    }
}

#[test]
fn edge_values_match_std() {
    let mut buf = String::new();
    for v in [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits((1 << 52) - 1),
        f64::MAX,
        f64::MIN,
        1e15,
        -1e15,
        999_999_999_999_999.9,
        4_503_599_627_370_495.5,
        4_503_599_627_370_496.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        18_014_398_509_481_984.0,
        0.1 + 0.2,
        1.0 / 3.0,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check(&mut buf, v);
    }
    // Every biased exponent — both sides of the `5^55` table limit, of
    // 2^54 and of the subnormal edge — at its smallest, largest, and an
    // odd and an even mantissa.
    for exp in 0..2047u64 {
        for mant in [0, 1, 2, 0x8_0000_0000_0001, (1 << 52) - 1] {
            check(&mut buf, f64::from_bits(exp << 52 | mant));
        }
    }
}
