//! Table 13 / Appx. B — static-analysis pattern evaluation.

#![deny(deprecated)]

use detect::corpus::{self, Technique};
use detect::static_analysis::{pattern_matches, preprocess, StaticPattern};
use gullible::report::TextTable;

fn main() {
    let _ctx = bench::banner("Table 13: patterns evaluated in static analysis");
    // Evaluation corpus: true detectors in every statically-visible tier,
    // plus benign scripts mentioning 'webdriver'.
    let detectors = [
        corpus::selenium_detector(Technique::Plain, "https://bd.test/v"),
        corpus::selenium_detector(Technique::Indexed, "https://bd.test/v"),
        corpus::selenium_detector(Technique::HexEscaped, "https://bd.test/v"),
        corpus::openwpm_detector(&["jsInstruments"], Technique::Plain, "https://cheqzone.com/v"),
        corpus::openwpm_detector(
            &["getInstrumentJS", "instrumentFingerprintingApis"],
            Technique::Plain,
            "https://x.test/v",
        ),
    ];
    let benign = [corpus::benign_webdriver_mention()];
    let mut table = TextTable::new("Table 13 — pattern precision over the evaluation corpus");
    table.header(&["pattern", "detector hits", "benign hits (FPs)", "paper: FP-prone"]);
    for pat in StaticPattern::all() {
        let hits = detectors.iter().filter(|s| pattern_matches(*pat, &preprocess(s))).count();
        let fps = benign.iter().filter(|s| pattern_matches(*pat, &preprocess(s))).count();
        table.row(&[
            pat.name().to_string(),
            hits.to_string(),
            fps.to_string(),
            if pat.fp_prone() { "yes" } else { "-" }.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper: the bare and undelimited 'webdriver' patterns produce false positives; the \
         navigator-anchored forms and the OpenWPM property names do not."
    );
    bench::finish("table13", None);
}
