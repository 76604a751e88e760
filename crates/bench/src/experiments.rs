//! The experiment table: every experiment `exp_all` runs, with the
//! paper's target quotes (each written once, here) and the function
//! that measures it. [`all_with_reports`] is one loop over the table;
//! each BENCH file it writes names the command that regenerates it.

use crate::reports;
use crate::sink::{command, BenchReport};
use crate::DEFAULT_FRAMES;
use std::time::Instant;

/// One row of [`EXPERIMENTS`].
pub struct Experiment {
    /// Experiment name; a row with a [`caption`](Self::caption) writes
    /// `BENCH_<name>.json`.
    pub name: &'static str,
    /// The paper's target quotes, in the order the report cites them.
    pub paper: &'static [&'static str],
    /// The BENCH file's `meta.paper`, each `{}` taking the next quote;
    /// `None` for a printed-only experiment with no BENCH file.
    pub caption: Option<&'static str>,
    /// Measures the experiment: fills the run's report and returns the
    /// printed section.
    pub run: fn(&mut Run) -> String,
}

/// What one experiment's measurement works with.
pub struct Run {
    /// Frames per accuracy run (at most [`DEFAULT_FRAMES`]).
    pub frames: usize,
    /// The experiment's paper quotes.
    pub paper: &'static [&'static str],
    /// The experiment's BENCH report.
    pub report: BenchReport,
}

impl Experiment {
    /// Runs the experiment with `frames` per accuracy run (at most
    /// [`DEFAULT_FRAMES`]) and returns its printed section and report.
    pub fn measure(&self, frames: usize) -> (String, BenchReport) {
        let mut run = Run {
            frames: frames.min(DEFAULT_FRAMES),
            paper: self.paper,
            report: BenchReport::new(self.name),
        };
        let text = (self.run)(&mut run);
        (text, run.report)
    }
}

impl Run {
    /// The `i`-th paper quote as the report prints it.
    pub fn cite(&self, i: usize) -> String {
        format!("(paper: {})", self.paper[i])
    }
}

/// Every experiment `exp_all` runs, in report order.
#[rustfmt::skip] // one row per experiment
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", run: reports::table1, caption: Some("Table 1: RPE RMSE, baseline vs PIM EBVO"),
        paper: &["TUM RGB-D: fr1_xyz 0.030/1.82 vs 0.039/1.92; fr2_desk 0.020/0.69 vs 0.019/0.64; fr3_st_ntex_far 0.028/0.77 vs 0.030/0.86"] },
    Experiment { name: "fig9a", run: reports::fig9a, caption: Some("Fig. 9-a: {}"),
        paper: &["48x edge, 9x LM, ~11x overall", "~19 MHz at 216 MHz baseline"] },
    Experiment { name: "fig9b", run: reports::fig9b, caption: Some("Fig. 9-b: naive vs optimized PIM mappings"),
        paper: &["1.7x", "1.4x"] },
    Experiment { name: "lowering", run: reports::lowering, paper: &[],
        caption: Some("extension: staged lowering pipeline, per-kernel cycles per pass group") },
    Experiment { name: "fig10a", run: reports::fig10a, caption: Some("Fig. 10-a: SRAM ~{} of PIM energy"),
        paper: &["86 %"] },
    Experiment { name: "fig10b", run: reports::fig10b, caption: Some("Fig. 10-b: writes {}"),
        paper: &["~7 % after Tmp-Reg optimization"] },
    Experiment { name: "energy", run: reports::energy, caption: Some("{} vs {} per frame ({})"),
        paper: &["10.3 mJ", "0.495 mJ", "20.8x"] },
    Experiment { name: "instr_mix", run: reports::instr_mix, caption: Some("§1 motivation: data-movement share"),
        paper: &["43 % x86 / 51 % ARM"] },
    Experiment { name: "quant_ablation", run: reports::quant_ablation, caption: None,
        paper: &["16-bit < 1 px; 8-bit completely faulty", "32-bit Q29.3 works, 16-bit breaks the solver"] },
    Experiment { name: "tmpreg", run: reports::tmpreg_ablation, caption: None, paper: &[] },
    Experiment { name: "interp", run: reports::interp_ablation, caption: None, paper: &[] },
    Experiment { name: "pyramid", run: reports::pyramid_ablation, caption: None, paper: &[] },
    Experiment { name: "area", run: reports::area, caption: None,
        paper: &["3.48e6", "5.60e4", "5.1 %", "944.8 / 44.6"] },
    Experiment { name: "scaling", run: reports::scaling, paper: &[],
        caption: Some("extension: sharded pool scaling, 1-8 arrays") },
];

/// The row of [`EXPERIMENTS`] called `name`.
///
/// # Panics
/// If there is none.
pub fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

/// Runs every experiment of [`EXPERIMENTS`] (`frames` bounds the
/// accuracy runs) and returns the consolidated report text plus one
/// [`BenchReport`] per captioned row and a closing summary, each
/// stamped with its wall time, its `meta.paper` caption and the
/// `exp_all` command that regenerates it.
pub fn all_with_reports(frames: usize) -> (Vec<BenchReport>, String) {
    let frames = frames.min(DEFAULT_FRAMES);
    // the destination is part of the regenerating command: without
    // `--out`, exp_all writes no file
    let regenerate = format!("{} --out .", command("exp_all", &[frames.to_string()]));
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut out = String::new();
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let t0 = Instant::now();
        let (text, mut report) = e.measure(frames);
        out.push_str(&text);
        if let Some(caption) = e.caption {
            let caption = e
                .paper
                .iter()
                .fold(caption.to_string(), |c, q| c.replacen("{}", q, 1));
            report
                .metric("wall_seconds", t0.elapsed().as_secs_f64())
                .note("paper", &caption)
                .note("command", &regenerate);
            reports.push(report);
        }
    }

    let mut summary = BenchReport::new("summary");
    summary
        .metric("experiments", EXPERIMENTS.len() as f64)
        .metric("frames", frames as f64)
        .metric("wall_seconds", started.elapsed().as_secs_f64())
        .note("tool", "pimvo-bench exp_all")
        .note("command", &regenerate);
    reports.push(summary);
    (reports, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_captions_take_every_placeholder() {
        for e in EXPERIMENTS {
            assert!(
                std::ptr::eq(experiment(e.name), e),
                "{} listed twice",
                e.name
            );
            if let Some(caption) = e.caption {
                assert!(caption.matches("{}").count() <= e.paper.len(), "{}", e.name);
            }
        }
    }
}
