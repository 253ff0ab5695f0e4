//! # matcher — compiled multi-pattern automaton engine
//!
//! A zero-dependency Aho-Corasick-style set matcher, built for the static
//! detector scan: many literal patterns compiled once into a single
//! automaton (literal set → trie → failure links → dense byte-class
//! transition table), then every script scanned in one pass regardless of
//! how many patterns the catalogue holds.
//!
//! The paper's pattern set is *not* a plain literal set — its precision
//! results rest on carefully iterated anchored semantics (the undelimited
//! `webdriver` form must reject `_webdriver`/`webdriver-` neighbours). The
//! automaton therefore reports *candidate* hits, and a thin semantic layer
//! confirms each candidate against its pattern's [`Anchor`] before the
//! pattern counts as matched. This keeps the engine exactly equivalent to
//! running every pattern's naive matcher independently, which is what the
//! differential suites assert.
//!
//! Design notes:
//!
//! * **Byte classes.** Only bytes that occur in some literal get their own
//!   transition column; every other byte shares class 0, which always
//!   returns to the root. For the Table 13 set this compresses the
//!   transition table from `states × 256` to `states × ~32` entries — it
//!   fits in L1, which is what makes the scan loop fast.
//! * **Output-state numbering.** States are renumbered so every state with
//!   a non-empty output set sits at the top of the index range; the hot
//!   loop detects "some literal ends here" with one integer comparison
//!   instead of a side-table load.
//! * **Full-DFA transitions.** Failure links are folded into the table at
//!   build time (`δ(s, c)` is precomputed through the failure chain), so
//!   the scan loop is exactly one table load per input byte.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// Positional guard a candidate hit must satisfy before its pattern counts
/// as matched — the anchored-semantics layer on top of the literal
/// automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// Plain substring: any occurrence confirms.
    Substring,
    /// Confirms only where neither the byte before the occurrence nor the
    /// byte after it is one of `delims` (the paper's "`webdriver` not
    /// adjacent to `_` or `-`" form). Checked on bytes: every delimiter is
    /// ASCII, and no UTF-8 continuation byte can equal an ASCII byte, so
    /// byte semantics and char semantics agree.
    Undelimited { delims: &'static [u8] },
}

/// One pattern: a set of alternative literals (any confirmed occurrence of
/// any literal matches the pattern) plus the anchor guard they share.
#[derive(Clone, Debug)]
pub struct PatternDef {
    pub literals: Vec<String>,
    pub anchor: Anchor,
}

impl PatternDef {
    /// A single plain-substring literal.
    pub fn substring(lit: &str) -> PatternDef {
        PatternDef { literals: vec![lit.to_owned()], anchor: Anchor::Substring }
    }

    /// Several alternative literals, any of which matches the pattern.
    pub fn alternation(lits: &[&str]) -> PatternDef {
        PatternDef {
            literals: lits.iter().map(|l| (*l).to_owned()).collect(),
            anchor: Anchor::Substring,
        }
    }

    /// A literal guarded by the undelimited-neighbour check.
    pub fn undelimited(lit: &str, delims: &'static [u8]) -> PatternDef {
        PatternDef { literals: vec![lit.to_owned()], anchor: Anchor::Undelimited { delims } }
    }
}

/// Counters from one scan: how many literal occurrences the automaton
/// reported, and how many survived their anchor guard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub candidate_hits: u64,
    pub confirmed_hits: u64,
}

/// Result of scanning one haystack: a per-pattern match bitmask plus the
/// candidate/confirmed accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchSet {
    mask: u64,
    pub stats: ScanStats,
}

impl MatchSet {
    /// Did pattern `idx` (build order) match?
    pub fn matched(&self, idx: usize) -> bool {
        self.mask & (1u64 << idx) != 0
    }

    /// Did any pattern match?
    pub fn any(&self) -> bool {
        self.mask != 0
    }

    /// The raw per-pattern bitmask (bit `i` = pattern `i` matched).
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

/// One flattened literal: which pattern it belongs to, its byte length,
/// and that pattern's anchor (denormalised for the hot confirm path).
#[derive(Clone, Copy, Debug)]
struct Lit {
    pattern: u16,
    len: u32,
    anchor: Anchor,
}

/// Trie node used during construction only.
#[derive(Default)]
struct TrieNode {
    next: BTreeMap<u8, u32>,
    /// Literal ids ending at this node (own, then failure-closure merged).
    out: Vec<u16>,
    fail: u32,
}

/// A pattern set compiled to a dense-table Aho-Corasick DFA. Build once
/// per set, scan any number of haystacks; `scan` takes `&self`, so one
/// compiled matcher is shared across worker threads freely.
pub struct CompiledMatcher {
    /// `table[state_row + class]` → next state's row offset. Entries are
    /// premultiplied by `n_classes`, so the scan loop's per-byte step is a
    /// single add + load with no multiply on the critical load-to-load
    /// dependency chain.
    table: Vec<u32>,
    /// Byte → transition-column class (0 = "in no literal", returns to root).
    classes: [u8; 256],
    n_classes: usize,
    /// States `>= out_start` have at least one literal ending in them.
    out_start: usize,
    /// `out_start * n_classes`: row offsets at/above this belong to output
    /// states — the hot loop's one-comparison hit test.
    out_row_start: usize,
    /// Output sets for states `out_start..`, indexed by `state - out_start`.
    out_lits: Vec<Vec<u16>>,
    lits: Vec<Lit>,
}

impl CompiledMatcher {
    /// Compile `patterns` (at most 64, order defines the result bit for
    /// each) into one automaton. Panics on an empty pattern list, an empty
    /// literal, or more than 64 patterns — pattern sets are static
    /// catalogues, so these are build-time programming errors, not inputs.
    pub fn build(patterns: &[PatternDef]) -> CompiledMatcher {
        assert!(!patterns.is_empty(), "empty pattern set");
        assert!(patterns.len() <= 64, "at most 64 patterns per matcher (got {})", patterns.len());

        // Flatten to literals and assign byte classes.
        let mut lits: Vec<Lit> = Vec::new();
        let mut lit_bytes: Vec<&[u8]> = Vec::new();
        let mut classes = [0u8; 256];
        let mut n_classes = 1usize; // class 0 = "no literal contains this byte"
        for (pi, pat) in patterns.iter().enumerate() {
            assert!(!pat.literals.is_empty(), "pattern {pi} has no literals");
            for l in &pat.literals {
                assert!(!l.is_empty(), "pattern {pi} has an empty literal");
                lits.push(Lit { pattern: pi as u16, len: l.len() as u32, anchor: pat.anchor });
                lit_bytes.push(l.as_bytes());
                for &b in l.as_bytes() {
                    if classes[b as usize] == 0 {
                        classes[b as usize] = n_classes as u8;
                        n_classes += 1;
                    }
                }
            }
        }
        assert!(n_classes <= 256, "byte-class overflow");

        // Trie.
        let mut trie: Vec<TrieNode> = vec![TrieNode::default()];
        for (li, bytes) in lit_bytes.iter().enumerate() {
            let mut s = 0u32;
            for &b in *bytes {
                let n = trie.len() as u32;
                s = match trie[s as usize].next.get(&b) {
                    Some(&c) => c,
                    None => {
                        trie[s as usize].next.insert(b, n);
                        trie.push(TrieNode::default());
                        n
                    }
                };
            }
            trie[s as usize].out.push(li as u16);
        }
        assert!(trie.len() < u16::MAX as usize, "pattern set too large for u16 states");

        // BFS failure links; merge output sets down the failure chain
        // (parents are processed before children, so `fail`'s outputs are
        // already closed when we copy them).
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let roots: Vec<(u8, u32)> = trie[0].next.iter().map(|(&b, &c)| (b, c)).collect();
        for (_, c) in &roots {
            trie[*c as usize].fail = 0;
            queue.push_back(*c);
        }
        while let Some(s) = queue.pop_front() {
            let edges: Vec<(u8, u32)> = trie[s as usize].next.iter().map(|(&b, &c)| (b, c)).collect();
            for (b, c) in edges {
                // Walk the failure chain to find the deepest proper suffix
                // with a `b`-edge.
                let mut f = trie[s as usize].fail;
                let fail_of_c = loop {
                    if let Some(&t) = trie[f as usize].next.get(&b) {
                        break t;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = trie[f as usize].fail;
                };
                // A root self-edge case: if s's fail chain resolves to c
                // itself (only possible when c is a depth-1 node), fail is
                // the root.
                let fail_of_c = if fail_of_c == c { 0 } else { fail_of_c };
                trie[c as usize].fail = fail_of_c;
                let merged: Vec<u16> = trie[fail_of_c as usize].out.clone();
                trie[c as usize].out.extend(merged);
                queue.push_back(c);
            }
        }

        // Renumber: output-free states first (root stays at index 0),
        // output states at the top of the range.
        let n = trie.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.extend((0..n as u32).filter(|&s| trie[s as usize].out.is_empty()));
        let out_start = order.len();
        order.extend((0..n as u32).filter(|&s| !trie[s as usize].out.is_empty()));
        let mut new_of = vec![0u16; n];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as u16;
        }
        debug_assert_eq!(new_of[0], 0, "root has no output (empty literals are rejected)");

        // Dense DFA table in class space, failure links folded in. BFS
        // order guarantees `δ(fail(s), ·)` rows are complete before `s`'s
        // row is derived from them.
        let mut table = vec![0u16; n * n_classes];
        let mut bfs: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        // Root row: class 0 and absent edges stay at the root.
        for (b, c) in &roots {
            table[new_of[0] as usize * n_classes + classes[*b as usize] as usize] = new_of[*c as usize];
            bfs.push_back(*c);
        }
        while let Some(s) = bfs.pop_front() {
            let srow = new_of[s as usize] as usize * n_classes;
            let frow = new_of[trie[s as usize].fail as usize] as usize * n_classes;
            for cls in 0..n_classes {
                table[srow + cls] = table[frow + cls];
            }
            let edges: Vec<(u8, u32)> = trie[s as usize].next.iter().map(|(&b, &c)| (b, c)).collect();
            for (b, c) in edges {
                table[srow + classes[b as usize] as usize] = new_of[c as usize];
                bfs.push_back(c);
            }
        }

        let mut out_lits: Vec<Vec<u16>> = vec![Vec::new(); n - out_start];
        for (old, node) in trie.iter().enumerate() {
            if !node.out.is_empty() {
                out_lits[new_of[old] as usize - out_start] = node.out.clone();
            }
        }

        // Premultiply every entry by the class count: states become row
        // offsets and the scan step needs no multiply.
        let table: Vec<u32> = table.iter().map(|&t| t as u32 * n_classes as u32).collect();

        CompiledMatcher {
            table,
            classes,
            n_classes,
            out_start,
            out_row_start: out_start * n_classes,
            out_lits,
            lits,
        }
    }

    /// Scan `haystack` once, confirming every candidate against its
    /// pattern's anchor. One sequential DFA walk visits every occurrence of
    /// every literal (the candidate/confirmed stats are a deterministic
    /// function of the haystack), so verdicts — and accounting — do not
    /// depend on pattern order or early exits.
    pub fn scan(&self, haystack: &str) -> MatchSet {
        let bytes = haystack.as_bytes();
        let mut out = MatchSet { mask: 0, stats: ScanStats::default() };
        let mut s = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            s = self.table[s + self.classes[b as usize] as usize] as usize;
            if s >= self.out_row_start {
                self.report(bytes, i, s, &mut out);
            }
        }
        out
    }

    /// Record every literal ending at `end` (row offset `s` is an output
    /// state), confirming anchors. Out of the hot loop: hits are rare.
    #[cold]
    fn report(&self, bytes: &[u8], end: usize, s: usize, out: &mut MatchSet) {
        let state = s / self.n_classes;
        for &li in &self.out_lits[state - self.out_start] {
            out.stats.candidate_hits += 1;
            let lit = self.lits[li as usize];
            if anchor_ok(bytes, end, lit) {
                out.stats.confirmed_hits += 1;
                out.mask |= 1u64 << lit.pattern;
            }
        }
    }
}

/// Evaluate `lit`'s anchor for an occurrence ending at byte `end` (the
/// index of the occurrence's last byte).
#[inline]
fn anchor_ok(bytes: &[u8], end: usize, lit: Lit) -> bool {
    match lit.anchor {
        Anchor::Substring => true,
        Anchor::Undelimited { delims } => {
            let start = end + 1 - lit.len as usize;
            let before_ok = start == 0 || !delims.contains(&bytes[start - 1]);
            let after_ok = end + 1 >= bytes.len() || !delims.contains(&bytes[end + 1]);
            before_ok && after_ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(defs: &[PatternDef]) -> CompiledMatcher {
        CompiledMatcher::build(defs)
    }

    #[test]
    fn single_substring() {
        let m = set(&[PatternDef::substring("webdriver")]);
        assert!(m.scan("check navigator.webdriver now").matched(0));
        assert!(!m.scan("check navigator.webdrive now").matched(0));
        assert!(m.scan("webdriver").matched(0));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let m = set(&[PatternDef::substring("abc"), PatternDef::substring("b")]);
        let r = m.scan("");
        assert!(!r.any());
        assert_eq!(r.stats, ScanStats::default());
        assert!(!m.scan("a").any());
        let r = m.scan("b");
        assert!(r.matched(1));
        assert!(!r.matched(0));
    }

    #[test]
    fn huge_input_with_matches_at_both_ends() {
        let mut s = String::from("needle-alpha ");
        s.push_str(&"x".repeat(2_000_000));
        s.push_str(" needle-omega");
        let m = set(&[
            PatternDef::substring("needle-alpha"),
            PatternDef::substring("needle-omega"),
            PatternDef::substring("absent"),
        ]);
        let r = m.scan(&s);
        assert!(r.matched(0) && r.matched(1) && !r.matched(2));
        assert_eq!(r.stats.candidate_hits, 2);
        assert_eq!(r.stats.confirmed_hits, 2);
    }

    #[test]
    fn patterns_that_are_prefixes_of_each_other() {
        let m = set(&[PatternDef::substring("web"), PatternDef::substring("webdriver")]);
        let r = m.scan("xxwebdriverxx");
        assert!(r.matched(0) && r.matched(1));
        let r = m.scan("xxwebxx");
        assert!(r.matched(0) && !r.matched(1));
        // Suffix relation too: one literal ending inside another.
        let m = set(&[PatternDef::substring("driver"), PatternDef::substring("webdriver")]);
        let r = m.scan("a webdriver b");
        assert!(r.matched(0) && r.matched(1));
        assert_eq!(r.stats.candidate_hits, 2, "both literals end at the same position");
    }

    #[test]
    fn overlapping_occurrences_all_reported() {
        let m = set(&[PatternDef::substring("aba")]);
        let r = m.scan("ababa");
        assert!(r.matched(0));
        assert_eq!(r.stats.candidate_hits, 2, "overlapping hits both count");
        let m = set(&[PatternDef::substring("abab"), PatternDef::substring("baba")]);
        let r = m.scan("ababab");
        assert!(r.matched(0) && r.matched(1));
    }

    #[test]
    fn alternation_matches_any_literal() {
        let m = set(&[PatternDef::alternation(&[
            "navigator[\"webdriver\"]",
            "navigator['webdriver']",
        ])]);
        assert!(m.scan("x = navigator['webdriver'];").matched(0));
        assert!(m.scan("x = navigator[\"webdriver\"];").matched(0));
        assert!(!m.scan("x = navigator[webdriver];").matched(0));
    }

    #[test]
    fn undelimited_anchor_guards_candidates() {
        let m = set(&[PatternDef::undelimited("webdriver", b"_-")]);
        assert!(m.scan("check(navigator.webdriver);").matched(0));
        // Exactly the haystack, no neighbours at all.
        assert!(m.scan("webdriver").matched(0));
        for benign in ["my_webdriver_flag", "-webdriver", "webdriver-", "_webdriver", "webdriver_"] {
            let r = m.scan(benign);
            assert!(!r.matched(0), "{benign:?} must be rejected by the guard");
            assert_eq!(r.stats.candidate_hits, 1, "{benign:?} is still a candidate");
            assert_eq!(r.stats.confirmed_hits, 0);
        }
        // One delimited plus one clean occurrence: the clean one confirms.
        let r = m.scan("_webdriver_ and webdriver.");
        assert!(r.matched(0));
        assert_eq!(r.stats.candidate_hits, 2);
        assert_eq!(r.stats.confirmed_hits, 1);
    }

    #[test]
    fn undelimited_guard_ignores_non_ascii_neighbours() {
        let m = set(&[PatternDef::undelimited("webdriver", b"_-")]);
        // Multi-byte neighbours are not delimiters; byte- and char-level
        // checks agree because delimiters are ASCII.
        assert!(m.scan("éwebdriveré").matched(0));
    }

    #[test]
    fn non_ascii_haystack_bytes_take_the_class0_path() {
        let m = set(&[PatternDef::substring("webdriver")]);
        assert!(m.scan("héllo wörld webdriver héllo").matched(0));
        assert!(!m.scan("héllo wörld webdrivér").matched(0));
    }

    #[test]
    #[should_panic(expected = "empty literal")]
    fn empty_literal_rejected() {
        set(&[PatternDef::substring("")]);
    }

    #[test]
    #[should_panic(expected = "at most 64 patterns")]
    fn pattern_limit_enforced() {
        let defs: Vec<PatternDef> =
            (0..65).map(|i| PatternDef::substring(&format!("p{i}"))).collect();
        set(&defs);
    }

    #[test]
    fn stats_are_deterministic_per_haystack() {
        let m = set(&[
            PatternDef::substring("webdriver"),
            PatternDef::undelimited("webdriver", b"_-"),
        ]);
        let h = "_webdriver_ webdriver _webdriver_";
        let a = m.scan(h);
        let b = m.scan(h);
        assert_eq!(a, b);
        assert_eq!(a.stats.candidate_hits, 6, "3 occurrences x 2 literals sharing one state");
        assert_eq!(a.stats.confirmed_hits, 4, "3 substring + 1 undelimited");
    }

    /// The automaton agrees with independent `str::contains` passes on
    /// random pattern sets over random haystacks — the core equivalence the
    /// detect crate's differential suites then re-assert on real patterns.
    #[test]
    fn random_differential_vs_contains() {
        proplite::run_cases(400, 0x4A11, |rng| {
            let n_pats = rng.usize_in(1, 7);
            let mut literals: Vec<String> = Vec::new();
            let mut guard = 0;
            while literals.len() < n_pats && guard < 200 {
                let cand = rng.string_of("abcd", 1, 6);
                if !literals.contains(&cand) {
                    literals.push(cand);
                }
                guard += 1;
            }
            let defs: Vec<PatternDef> =
                literals.iter().map(|l| PatternDef::substring(l)).collect();
            let m = CompiledMatcher::build(&defs);
            let hay = rng.string_of("abcd", 0, 300);
            let r = m.scan(&hay);
            for (i, l) in literals.iter().enumerate() {
                assert_eq!(
                    r.matched(i),
                    hay.contains(l.as_str()),
                    "pattern {l:?} disagreed on haystack {hay:?}"
                );
            }
        });
    }

    /// Undelimited-anchor parity with the naive per-occurrence scan.
    #[test]
    fn random_differential_undelimited() {
        proplite::run_cases(400, 0x4A12, |rng| {
            let lit = rng.string_of("ab", 1, 4);
            let m = CompiledMatcher::build(&[PatternDef::undelimited(&lit, b"_-")]);
            let hay = rng.string_of("ab_-", 0, 200);
            // Naive reference: every occurrence, neighbour-checked.
            let mut expect = false;
            let mut start = 0;
            while let Some(i) = hay[start..].find(lit.as_str()) {
                let at = start + i;
                let before = hay.as_bytes()[..at].last().copied();
                let after = hay.as_bytes().get(at + lit.len()).copied();
                if !matches!(before, Some(b'_') | Some(b'-'))
                    && !matches!(after, Some(b'_') | Some(b'-'))
                {
                    expect = true;
                }
                start = at + 1;
            }
            assert_eq!(m.scan(&hay).matched(0), expect, "lit {lit:?} on {hay:?}");
        });
    }

    /// Occurrences separated by long literal-free gaps, and occurrences
    /// that abut one another, each report exactly once.
    #[test]
    fn isolated_and_abutting_matches_each_report() {
        let m = set(&[PatternDef::substring("webdriver")]);
        // Filler gaps long enough to hold no occurrence near the next one.
        let gap = "xv wq ".repeat(1000);
        let hay = format!("webdriver{gap}webdriver{gap}webdriver");
        let r = m.scan(&hay);
        assert!(r.matched(0));
        assert_eq!(r.stats.candidate_hits, 3);
        assert_eq!(r.stats.confirmed_hits, 3);
        // Two back-to-back occurrences must both report.
        let hay = format!("{gap}webdriverwebdriver{gap}");
        let r = m.scan(&hay);
        assert_eq!(r.stats.candidate_hits, 2, "abutting occurrences each report");
    }
}
