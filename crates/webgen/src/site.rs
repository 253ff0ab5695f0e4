//! Deterministic site-plan generation for the synthetic Tranco-100K.
//!
//! Every site is derived on demand from `(population seed, rank)` — nothing
//! is stored, so the 100K population costs no memory and every crawl is
//! bit-reproducible. Assignment of detector features is calibrated to the
//! paper's measured totals (Tables 5–7, 11–12); the calibration constants
//! live in [`Targets`] with the derivation documented inline. Small exact
//! counts (first-party origins, OpenWPM-specific providers) use a
//! permutation assignment (exact); large counts use hashed thresholds
//! (binomial, within ~1% of target at n = 100K).

use detect::Technique;
use netsim::Url;

use crate::categories::{self, Category};
use crate::providers::{
    third_party_for_draw, FirstPartyOrigin, OpenWpmProvider, OPENWPM_PROVIDERS,
};

/// Calibration targets and derived probabilities. All counts are the
/// paper's, for a 100K population; probabilities are expressed as
/// per-100K thresholds so they scale to smaller test populations.
pub struct Targets;

impl Targets {
    /// Hashed (bulk third-party) front-page detector sites.
    /// Front union 13,989 minus 4,223 forced (first-party 3,867 +
    /// OpenWPM-specific 356) ≈ 9,766.
    pub const FRONT_HASHED_PER_100K: u32 = 9_766;
    /// Mix within hashed front detector sites (per mille):
    /// both static+dynamic / static-only (hover-gated) / dynamic-only
    /// (constructed). From front counts: static 11,897, dynamic 12,208,
    /// union 13,989 ⇒ 5,918 / 1,781 / 2,067 of 9,766.
    pub const FRONT_BOTH_PM: u32 = 590;
    pub const FRONT_STATIC_ONLY_PM: u32 = 160;
    /// Subpage-only detector sites: union 18,714 − 13,989 = 4,725 of the
    /// ~86K front-clean sites ⇒ 5.49 per 100.
    pub const SUB_EXTRA_PER_100K: u32 = 5_950;
    /// Mix within subpage-only sites: 3,770 / 171 / 784 of 4,725.
    pub const SUB_BOTH_PM: u32 = 820;
    pub const SUB_STATIC_ONLY_PM: u32 = 20;
    /// Benign webdriver-mention sites: naive-pattern false positives.
    /// identified static 32,694 = true 15,838 + p·(100K − 15,838)
    /// ⇒ p ≈ 20.0 per 100.
    pub const BENIGN_MENTION_PER_100K: u32 = 20_030;
    /// Iterator (generic fingerprinting) sites: dynamic identified 19,139 =
    /// true 16,762 + q·(100K − 16,762) ⇒ q ≈ 2.86 per 100.
    pub const ITERATOR_PER_100K: u32 = 2_856;
    /// Probability a third-party detector site includes a *second*
    /// provider: 21,325 inclusions ≈ (14,491 hashed sites)(1+x) + 356
    /// ⇒ x ≈ 0.45.
    pub const SECOND_PROVIDER_PM: u32 = 450;
    /// Strict-CSP sites (Sec. 6.3.1: 113 of 1,487 ⇒ 7.6 per 100).
    pub const STRICT_CSP_PER_100K: u32 = 7_600;
    /// Subpages linked from the landing page (the crawler follows ≤ 3).
    pub const MAX_SUBPAGES: u32 = 3;
}

/// The synthetic ranked web.
#[derive(Clone, Copy, Debug)]
pub struct Population {
    pub n_sites: u32,
    pub seed: u64,
    /// Chronically unreliable sites (slow hosts, crash-prone markup) per
    /// 100K: the fault injector boosts its rates on these. Zero from
    /// [`Population::new`] so calibrated aggregates are untouched unless a
    /// robustness experiment opts in.
    pub flaky_per_100k: u32,
}

/// Detector configuration of one page class (front or subpage).
#[derive(Clone, Debug, Default)]
pub struct PageDetectors {
    /// Third-party detector inclusions: `(hosting domain, technique)`.
    pub third_party: Vec<(String, Technique)>,
}

impl PageDetectors {
    pub fn is_empty(&self) -> bool {
        self.third_party.is_empty()
    }
}

/// Adaptive (cloaking) behaviour of a site towards flagged bots.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloakPolicy {
    /// Fraction (per mille) of tracking cookies withheld from flagged bots.
    pub tracking_withhold_pm: u32,
    /// Fraction (per mille) of ad/tracker requests withheld.
    pub tracker_withhold_pm: u32,
    /// Site re-identifies clients across runs and escalates throttling.
    pub reidentifies: bool,
}

/// Everything knowable about a site before visiting it.
#[derive(Clone, Debug)]
pub struct SitePlan {
    pub rank: u32,
    pub domain: String,
    pub categories: Vec<Category>,
    pub front: PageDetectors,
    /// Detectors present on subpages (site-wide inclusions propagate here).
    pub subpage: PageDetectors,
    pub subpage_count: u32,
    pub first_party: Option<FirstPartyOrigin>,
    pub openwpm_provider: Option<&'static OpenWpmProvider>,
    pub benign_mention: bool,
    pub iterator: bool,
    pub strict_csp: bool,
    pub cloak: CloakPolicy,
    /// Chronically unreliable host (see `Population::flaky_per_100k`).
    pub flaky: bool,
    /// Per-site deterministic seed for content generation.
    pub site_seed: u64,
}

impl SitePlan {
    /// Does any detector run on the front page?
    pub fn front_has_detector(&self) -> bool {
        !self.front.is_empty() || self.first_party.is_some() || self.openwpm_provider.is_some()
    }

    /// Does any detector run anywhere on the site (front or subpages)?
    pub fn site_has_detector(&self) -> bool {
        self.front_has_detector() || !self.subpage.is_empty()
    }

    pub fn front_url(&self) -> Url {
        Url::parse(&format!("https://{}/", self.domain)).unwrap()
    }

    pub fn subpage_url(&self, i: u32) -> Url {
        Url::parse(&format!("https://{}/page{}.html", self.domain, i + 1)).unwrap()
    }
}

/// SplitMix64 — the workhorse hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Population {
    pub fn new(n_sites: u32, seed: u64) -> Population {
        Population { n_sites, seed, flaky_per_100k: 0 }
    }

    fn h(&self, rank: u32, salt: u64) -> u64 {
        splitmix(self.seed ^ (rank as u64).wrapping_mul(0x100_0000_01B3) ^ salt)
    }

    /// Uniform draw in `[0, m)`.
    fn draw(&self, rank: u32, salt: u64, m: u32) -> u32 {
        (self.h(rank, salt) % m as u64) as u32
    }

    /// Exact-count permutation assignment: returns the site's position in a
    /// pseudo-random bijection of ranks, for carving disjoint exact slices.
    fn perm_pos(&self, rank: u32, mult: u64) -> u64 {
        // A multiplier coprime with n gives a bijection on [0, n).
        let n = self.n_sites as u64;
        ((rank as u64).wrapping_mul(mult).wrapping_add(splitmix(self.seed) % n)) % n
    }

    /// Front-page detector probability for a rank, per 100K, with the
    /// rank decay of Fig. 4 (top sites deploy bot defences more often).
    /// Averages to [`Targets::FRONT_HASHED_PER_100K`] over the population.
    fn front_probability_per_100k(&self, rank: u32) -> u32 {
        let avg = Targets::FRONT_HASHED_PER_100K as f64;
        // decay(r) = 0.64 + 1.2·exp(−r/0.3n); population mean ≈ 0.987.
        let x = rank as f64 / (0.3 * self.n_sites as f64);
        let decay = 0.64 + 1.2 * (-x).exp();
        (avg * decay / 0.987) as u32
    }

    /// Build the plan for `rank` (1-based).
    pub fn plan(&self, rank: u32) -> SitePlan {
        let n = self.n_sites;
        let site_seed = self.h(rank, 0xBEEF);

        // --- forced exact assignments (disjoint permutation slices) ---
        let fp_pos = self.perm_pos(rank, 104_729);
        let mut acc = 0u64;
        let mut first_party = None;
        for origin in FirstPartyOrigin::all() {
            let count = if n == 100_000 {
                origin.site_count() as u64
            } else {
                (origin.site_count() as u64 * n as u64).div_ceil(100_000)
            };
            if fp_pos >= acc && fp_pos < acc + count {
                first_party = Some(*origin);
            }
            acc += count;
        }
        let owpm_pos = self.perm_pos(rank, 60_013);
        let mut acc = 0u64;
        let mut openwpm_provider = None;
        for p in OPENWPM_PROVIDERS {
            let count = if n == 100_000 {
                p.sites as u64
            } else {
                ((p.sites as u64 * n as u64) / 100_000).max(1)
            };
            if owpm_pos >= acc && owpm_pos < acc + count {
                openwpm_provider = Some(p);
            }
            acc += count;
        }

        // --- hashed bulk assignments ---
        let front_hit =
            self.draw(rank, 0xF807, 100_000) < self.front_probability_per_100k(rank);
        let technique_for = |draw: u32, both_pm: u32, static_only_pm: u32| -> Technique {
            let d = draw % 1000;
            if d < both_pm {
                // Both-findable probes in three concrete forms.
                match draw % 3 {
                    0 => Technique::Plain,
                    1 => Technique::Indexed,
                    _ => Technique::HexEscaped,
                }
            } else if d < both_pm + static_only_pm {
                Technique::HoverGated
            } else {
                Technique::Constructed
            }
        };
        let mut front = PageDetectors::default();
        if front_hit {
            let tdraw = self.draw(rank, 0x7EC4, 1_000_000);
            let technique =
                technique_for(tdraw, Targets::FRONT_BOTH_PM, Targets::FRONT_STATIC_ONLY_PM);
            let pdraw = self.draw(rank, 0x9807, 1000);
            front.third_party.push((third_party_for_draw(pdraw), technique));
            if self.draw(rank, 0x2ECD, 1000) < Targets::SECOND_PROVIDER_PM {
                let pdraw2 = self.draw(rank, 0x2ECE, 1000);
                let technique2 = technique_for(
                    self.draw(rank, 0x2ECF, 1_000_000),
                    Targets::FRONT_BOTH_PM,
                    Targets::FRONT_STATIC_ONLY_PM,
                );
                let domain2 = third_party_for_draw(pdraw2);
                if domain2 != front.third_party[0].0 {
                    front.third_party.push((domain2, technique2));
                }
            }
        }

        // Subpage detectors: site-wide inclusions propagate; plus
        // subpage-only detectors on otherwise-clean front pages.
        let mut subpage = front.clone();
        let front_any = front_hit || first_party.is_some() || openwpm_provider.is_some();
        if !front_any && self.draw(rank, 0x50B5, 100_000) < Targets::SUB_EXTRA_PER_100K {
            let tdraw = self.draw(rank, 0x50B6, 1_000_000);
            let technique =
                technique_for(tdraw, Targets::SUB_BOTH_PM, Targets::SUB_STATIC_ONLY_PM);
            let pdraw = self.draw(rank, 0x50B7, 1000);
            subpage.third_party.push((third_party_for_draw(pdraw), technique));
        }

        let benign_mention =
            self.draw(rank, 0xBE9, 100_000) < Targets::BENIGN_MENTION_PER_100K;
        let iterator = self.draw(rank, 0x17E2, 100_000) < Targets::ITERATOR_PER_100K;
        let strict_csp = self.draw(rank, 0xC59, 100_000) < Targets::STRICT_CSP_PER_100K;
        let flaky = self.draw(rank, 0xF1A2, 100_000) < self.flaky_per_100k;

        // --- categories, conditioned on detector deployment (Fig. 5) ---
        let cdraw = self.draw(rank, 0xCA7, 1_000_000);
        let primary = if first_party.is_some() {
            categories::pick(categories::FIRST_PARTY_WEIGHTS, cdraw)
        } else if front_any || !subpage.is_empty() {
            categories::pick(categories::THIRD_PARTY_WEIGHTS, cdraw)
        } else {
            categories::pick(categories::BASE_WEIGHTS, cdraw)
        };
        let mut cats = vec![primary];
        if self.draw(rank, 0xCA8, 1000) < 350 {
            let secondary = categories::pick(categories::BASE_WEIGHTS, cdraw / 7 + 13);
            if secondary != primary {
                cats.push(secondary);
            }
        }

        // --- cloaking policy (only meaningful for detector sites) ---
        let cloak = CloakPolicy {
            tracking_withhold_pm: 150 + self.draw(rank, 0xC10A, 300),
            tracker_withhold_pm: 30 + self.draw(rank, 0xC10B, 60),
            reidentifies: self.draw(rank, 0xC10C, 1000) < 600,
        };

        // A site can only serve subpage detectors if it has subpages the
        // crawler can reach.
        let mut subpage_count = self.draw(rank, 0x5BC, Targets::MAX_SUBPAGES + 1);
        if !front_any && !subpage.is_empty() {
            subpage_count = subpage_count.max(1);
        }

        let tld = ["com", "net", "org", "io", "de", "co.uk"][(self.h(rank, 0x71D) % 6) as usize];
        SitePlan {
            rank,
            domain: format!("w{rank:06}.{tld}"),
            categories: cats,
            front,
            subpage,
            subpage_count,
            first_party,
            openwpm_provider,
            benign_mention,
            iterator,
            strict_csp,
            cloak,
            flaky,
            site_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop100k() -> Population {
        Population::new(100_000, 0xDEAD_BEEF)
    }

    #[test]
    fn plans_are_deterministic() {
        let p = pop100k();
        let a = p.plan(42);
        let b = p.plan(42);
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.front.third_party, b.front.third_party);
        assert_eq!(a.site_seed, b.site_seed);
    }

    #[test]
    fn first_party_counts_exact_at_100k() {
        let p = pop100k();
        let mut counts = std::collections::HashMap::new();
        for rank in 0..100_000 {
            if let Some(origin) = p.plan(rank).first_party {
                *counts.entry(origin.label()).or_insert(0u32) += 1;
            }
        }
        assert_eq!(counts["Akamai"], 1004);
        assert_eq!(counts["Incapsula"], 998);
        assert_eq!(counts["Unknown"], 659);
        assert_eq!(counts["Cloudflare"], 486);
        assert_eq!(counts["PerimeterX"], 134);
        let total: u32 = counts.values().sum();
        assert_eq!(total, FirstPartyOrigin::total_sites());
    }

    #[test]
    fn openwpm_provider_counts_exact_at_100k() {
        let p = pop100k();
        let mut counts = std::collections::HashMap::new();
        for rank in 0..100_000 {
            if let Some(prov) = p.plan(rank).openwpm_provider {
                *counts.entry(prov.domain).or_insert(0u32) += 1;
            }
        }
        assert_eq!(counts["cheqzone.com"], 331);
        assert_eq!(counts["googlesyndication.com"], 14);
        assert_eq!(counts["google.com"], 9);
        assert_eq!(counts["adzouk1tag.com"], 2);
    }

    #[test]
    fn front_detector_rate_near_14_percent() {
        let p = pop100k();
        let mut front = 0u32;
        for rank in 0..100_000 {
            if p.plan(rank).front_has_detector() {
                front += 1;
            }
        }
        // Paper: 13,989 front-page detector sites. Binomial noise plus
        // forced-assignment overlap allows ~±4%.
        assert!(
            (13_400..=14_600).contains(&front),
            "front detector sites = {front}, target ≈ 13,989"
        );
    }

    #[test]
    fn site_detector_rate_near_19_percent() {
        let p = pop100k();
        let mut any = 0u32;
        for rank in 0..100_000 {
            if p.plan(rank).site_has_detector() {
                any += 1;
            }
        }
        assert!(
            (17_900..=19_500).contains(&any),
            "detector sites incl. subpages = {any}, target ≈ 18,714"
        );
    }

    #[test]
    fn top_ranks_have_more_detectors_than_tail() {
        let p = pop100k();
        let count = |range: std::ops::Range<u32>| {
            range.filter(|&r| p.plan(r).front_has_detector()).count()
        };
        let top = count(0..5_000);
        let tail = count(95_000..100_000);
        assert!(
            top as f64 > tail as f64 * 1.5,
            "top-5K {top} vs bottom-5K {tail}: Fig. 4 decay missing"
        );
    }

    #[test]
    fn detector_sites_favour_news_and_shopping() {
        let p = pop100k();
        let mut news_tp = 0;
        let mut shop_fp = 0;
        let mut fp_sites = 0;
        let mut tp_sites = 0;
        for rank in 0..100_000 {
            let plan = p.plan(rank);
            if plan.first_party.is_some() {
                fp_sites += 1;
                if plan.categories[0] == Category::Shopping {
                    shop_fp += 1;
                }
            } else if plan.site_has_detector() {
                tp_sites += 1;
                if plan.categories[0] == Category::News {
                    news_tp += 1;
                }
            }
        }
        let news_share = news_tp as f64 / tp_sites as f64;
        let shop_share = shop_fp as f64 / fp_sites as f64;
        assert!((0.15..0.22).contains(&news_share), "news share {news_share}");
        assert!((0.13..0.20).contains(&shop_share), "shopping share {shop_share}");
    }

    #[test]
    fn flaky_sites_appear_only_when_opted_in() {
        let mut p = Population::new(10_000, 11);
        assert!(
            (0..10_000).all(|r| !p.plan(r).flaky),
            "default populations must have no flaky sites"
        );
        p.flaky_per_100k = 10_000; // 10%
        let flaky = (0..10_000).filter(|&r| p.plan(r).flaky).count();
        assert!((800..=1200).contains(&flaky), "flaky = {flaky}");
    }

    #[test]
    fn scales_down_to_small_populations() {
        let p = Population::new(2_000, 7);
        let mut detectors = 0;
        for rank in 0..2_000 {
            if p.plan(rank).site_has_detector() {
                detectors += 1;
            }
        }
        // ~19% ± generous noise at n=2,000.
        assert!((280..=480).contains(&detectors), "detectors = {detectors}");
    }
}
