//! # proplite — a minimal deterministic property-testing harness
//!
//! The repository builds in fully offline environments, so it cannot pull
//! `proptest` from a registry. This crate provides the small slice of
//! property-based testing the test-suites actually use: a seeded
//! [`Rng`] with generators for the common value shapes, and [`run_cases`],
//! which executes a property closure across many generated cases and
//! reports the failing case's seed so it can be replayed.
//!
//! Everything is deterministic: the same harness seed always generates the
//! same case sequence, so failures reproduce without shrinking.
//!
//! It also holds [`TempDir`], the scratch directory the test suites write
//! bundles into.

#![forbid(unsafe_code)]

/// SplitMix64 — a tiny, high-quality, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[lo, hi)`. Panics when the range is empty.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add((self.next_u64() % (hi.wrapping_sub(lo)) as u64) as i64)
    }

    /// Uniform draw in `[lo, hi)` over f64.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A string of `min..=max` chars drawn from `alphabet`.
    pub fn string_of(&mut self, alphabet: &str, min: usize, max: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.usize_in(min, max + 1);
        (0..len).map(|_| chars[self.usize_in(0, chars.len())]).collect()
    }

    /// A printable-ASCII string (the `[ -~]{min,max}` regex class).
    pub fn ascii(&mut self, min: usize, max: usize) -> String {
        let len = self.usize_in(min, max + 1);
        (0..len).map(|_| char::from(self.u32_in(0x20, 0x7F) as u8)).collect()
    }

    /// An "anything" string (the `.{min,max}` strategy): printable ASCII
    /// mixed with control characters and non-ASCII code points.
    pub fn any_string(&mut self, min: usize, max: usize) -> String {
        let len = self.usize_in(min, max + 1);
        (0..len)
            .map(|_| match self.u64_in(0, 10) {
                0 => char::from(self.u32_in(0x00, 0x20) as u8), // control
                1 => char::from_u32(self.u32_in(0xA0, 0x2FF)).unwrap_or('¿'),
                2 => char::from_u32(self.u32_in(0x4E00, 0x4F00)).unwrap_or('漢'),
                _ => char::from(self.u32_in(0x20, 0x7F) as u8),
            })
            .collect()
    }

    /// `count` *distinct* strings over `alphabet` (a hash-set strategy).
    pub fn distinct_strings(
        &mut self,
        alphabet: &str,
        min_len: usize,
        max_len: usize,
        min_count: usize,
        max_count: usize,
    ) -> Vec<String> {
        let want = self.usize_in(min_count, max_count + 1);
        let mut out: Vec<String> = Vec::new();
        let mut guard = 0;
        while out.len() < want && guard < want * 50 {
            guard += 1;
            let s = self.string_of(alphabet, min_len, max_len);
            if !s.is_empty() && !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// A vector of f64 draws.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, min: usize, max: usize) -> Vec<f64> {
        let len = self.usize_in(min, max + 1);
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// `count` distinct i64 draws in `[lo, hi)`.
    pub fn distinct_i64(&mut self, lo: i64, hi: i64, min: usize, max: usize) -> Vec<i64> {
        let want = self.usize_in(min, max + 1);
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < want && guard < want * 50 {
            guard += 1;
            let v = self.i64_in(lo, hi);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// Run `property` across `cases` generated cases. Each case gets an [`Rng`]
/// derived from `(seed, case index)`; a panic inside the property is
/// augmented with the case index so it can be replayed with
/// `Rng::new(seed ^ index)`.
pub fn run_cases(cases: usize, seed: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let case_seed = seed ^ (case as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = Rng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property failed at case {case} (seed {case_seed:#x}): {msg}");
        }
    }
}

/// A scratch directory `<temp>/gullible-<name>-<pid>`, removed when the
/// guard drops. The process id keeps concurrent test binaries apart; a
/// leftover of a killed run is cleared before use. The directory itself is
/// not created: a bundle sink creates its own.
#[derive(Debug)]
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("gullible-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl AsRef<std::path::Path> for TempDir {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

/// So `&TempDir` converts into a `PathBuf`, as sink builders take one.
impl AsRef<std::ffi::OsStr> for TempDir {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let dir = TempDir::new("proplite-selftest");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub/f"), b"x").unwrap();
        let path = dir.to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn deterministic_sequences() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let v = rng.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.i64_in(-5, 5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn strings_use_alphabet() {
        let mut rng = Rng::new(2);
        for _ in 0..100 {
            let s = rng.string_of("abc", 0, 10);
            assert!(s.len() <= 10);
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    fn distinct_strings_are_distinct() {
        let mut rng = Rng::new(3);
        let v = rng.distinct_strings("abcdefgh", 1, 8, 1, 10);
        let mut sorted = v.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len());
    }

    #[test]
    fn failing_case_reports_index() {
        let err = std::panic::catch_unwind(|| {
            run_cases(10, 42, |rng| {
                let x = rng.u64_in(0, 100);
                assert!(x < 1000, "impossible");
                panic!("boom at {x}");
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("property failed at case 0"), "{msg}");
    }
}
