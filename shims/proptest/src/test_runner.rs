//! The deterministic case runner and its RNG.

/// Runner configuration; only `cases` matters for this shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// Assertion failure: fails the whole property.
    Fail(String),
    /// `prop_assume!` rejection: the case is regenerated.
    Reject(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    /// An assumption rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// SplitMix64-based generator: statistically fine for case generation and
/// fully deterministic from its seed.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a stream.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; the tiny modulo bias is irrelevant for test-case
        // generation.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }
}

/// FNV-1a, used to derive a per-test seed from the test's name.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drive one property: `config.cases` inputs, each from its own substream.
/// Rejections (`prop_assume!`) retry the case with a fresh substream, up to
/// a global cap. Failures panic with the case index and message.
pub fn run(
    config: &ProptestConfig,
    name: &str,
    property: impl Fn(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let seed = fnv1a(name);
    let mut rejections = 0u32;
    let max_rejections = 1024 + 16 * config.cases;
    let mut case = 0u32;
    let mut substream = 0u64;
    while case < config.cases {
        let mut rng = TestRng::new(seed ^ substream.wrapping_mul(0xA24B_AED4_963E_E407));
        substream += 1;
        match property(&mut rng) {
            Ok(()) => case += 1,
            Err(TestCaseError::Reject(why)) => {
                rejections += 1;
                if rejections > max_rejections {
                    panic!(
                        "property {name}: too many prop_assume! rejections ({rejections}), last: {why}"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property {name} failed at case {case} (substream {substream}): {msg}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = TestRng::new(fnv1a("x"));
        let mut b = TestRng::new(fnv1a("x"));
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn runner_executes_requested_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run(&ProptestConfig::with_cases(10), "counting", |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 10);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn runner_reports_failures() {
        run(&ProptestConfig::with_cases(4), "failing", |_| {
            Err(TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn rejections_regenerate() {
        let seen = std::cell::Cell::new(0u32);
        run(&ProptestConfig::with_cases(5), "rejecting", |rng| {
            if rng.below(2) == 0 {
                return Err(TestCaseError::reject("coin"));
            }
            seen.set(seen.get() + 1);
            Ok(())
        });
        assert_eq!(seen.get(), 5);
    }
}
