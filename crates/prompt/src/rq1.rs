//! RQ1 prompts: baseline roofline calculations over random rooflines
//! (paper Fig. 3).
//!
//! 240 random rooflines are generated; for each, one bandwidth-bound and
//! one compute-bound AI value is drawn. Prompts show 2, 4, or 8 worked
//! examples — optionally with chain-of-thought "Thought:" text — and end
//! with the query question.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use pce_roofline::{Boundedness, Roofline};

/// One RQ1 roofline question.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Rq1Item {
    /// Peak performance in GFLOP/s.
    pub peak_gflops: f64,
    /// Max bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// The queried arithmetic intensity (FLOP/byte).
    pub ai: f64,
    /// Achieved performance shown in the question (GFLOP/s) — flavour
    /// text the model does not need, exactly as in the paper's prompt.
    pub performance_gflops: f64,
    /// Ground-truth class of `ai` against this roofline.
    pub truth: Boundedness,
    /// How far the AI sits from the balance point, in decades
    /// (`|log10(ai / balance)|`) — the question's intrinsic difficulty.
    pub margin_decades: f64,
}

/// A full RQ1 evaluation suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Rq1Suite {
    /// The query items, two per random roofline (one BB, one CB).
    pub items: Vec<Rq1Item>,
    /// Seed the suite was generated from.
    pub seed: u64,
}

/// Generate the RQ1 suite: `rooflines` random rooflines × 2 query AIs.
///
/// Rooflines are sampled over a realistic span (laptop iGPU to data-center
/// accelerator); query AIs sit between 0.1 and 1.0 decades away from the
/// balance point, as in the paper's worked examples.
pub fn generate_rq1_suite(rooflines: usize, seed: u64) -> Rq1Suite {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(rooflines * 2);
    for _ in 0..rooflines {
        let peak = 10f64.powf(rng.gen_range(1.0..4.5)); // 10 GF/s .. ~30 TF/s
        let bw = 10f64.powf(rng.gen_range(1.0..3.2)); // 10 GB/s .. ~1.6 TB/s
        let roof = Roofline::new(peak, bw);
        let balance = roof.balance_point();
        for &side in &[Boundedness::Bandwidth, Boundedness::Compute] {
            let margin = rng.gen_range(0.1..1.0);
            let ai = match side {
                Boundedness::Bandwidth => balance * 10f64.powf(-margin),
                Boundedness::Compute => balance * 10f64.powf(margin),
            };
            let attainable = roof.attainable_gops(ai);
            let performance = attainable * rng.gen_range(0.3..0.95);
            items.push(Rq1Item {
                peak_gflops: round3(peak),
                bandwidth_gbs: round3(bw),
                ai: round3(ai),
                performance_gflops: round3(performance),
                truth: side,
                margin_decades: margin,
            });
        }
    }
    Rq1Suite { items, seed }
}

fn round3(v: f64) -> f64 {
    let scale = 10f64.powf(3.0 - v.abs().log10().floor().max(0.0));
    (v * scale).round() / scale
}

fn question(item: &Rq1Item) -> String {
    format!(
        "Question: Given a GPU having a global memory with a max bandwidth of {} GB/s \
         and a peak performance of {} GFLOP/s, if a program executed with an Arithmetic \
         Intensity of {} FLOP/Byte and a performance of {} GFLOP/s, does the roofline \
         model consider the program as compute-bound or bandwidth-bound?",
        item.bandwidth_gbs, item.peak_gflops, item.ai, item.performance_gflops
    )
}

fn thought(item: &Rq1Item) -> String {
    let balance = item.peak_gflops / item.bandwidth_gbs;
    let relation = if item.ai < balance { "<" } else { ">=" };
    let region = match item.truth {
        Boundedness::Bandwidth => {
            "before the balance point, putting the program in the bandwidth-bound region"
        }
        Boundedness::Compute => {
            "past the balance point, putting the program in the compute-bound region"
        }
    };
    format!(
        "Thought: The max bandwidth is {} GB/s, and peak performance is {} GFLOP/s. \
         The balance point is at {} / {} = {:.2} FLOP/Byte. The program's Arithmetic \
         Intensity is {} FLOP/Byte. Because {} {} {:.2}, it is {}. The roofline model \
         would consider the program as {}-bound.",
        item.bandwidth_gbs,
        item.peak_gflops,
        item.peak_gflops,
        item.bandwidth_gbs,
        balance,
        item.ai,
        item.ai,
        relation,
        balance,
        region,
        item.truth.answer_token().to_lowercase()
    )
}

/// Render the RQ1 prompt for a query item: `shots` worked examples (drawn
/// from the suite itself, skipping the query), optionally with CoT
/// thought text, then the query question.
///
/// # Panics
/// Panics if the suite has too few items to supply the examples, or if
/// `shots < 2` (the paper always includes at least two examples to anchor
/// the output format).
pub fn render_rq1_prompt(suite: &Rq1Suite, query_idx: usize, shots: usize, cot: bool) -> String {
    assert!(
        shots >= 2,
        "the paper's RQ1 prompts use at least 2 examples"
    );
    assert!(
        suite.items.len() > shots,
        "suite too small: {} items for {shots} shots",
        suite.items.len()
    );
    let mut out = String::with_capacity(2048);
    out.push_str(
        "You are a GPU performance analysis expert. Answer each question with exactly \
         one word: Compute or Bandwidth.\n\n",
    );
    let mut used = 0;
    let mut idx = 0;
    while used < shots {
        if idx == query_idx {
            idx += 1;
            continue;
        }
        let ex = &suite.items[idx % suite.items.len()];
        out.push_str(&question(ex));
        out.push('\n');
        if cot {
            out.push_str(&thought(ex));
            out.push('\n');
        }
        out.push_str(&format!("Answer: {}\n\n", ex.truth.answer_token()));
        used += 1;
        idx += 1;
    }
    out.push_str(&question(&suite.items[query_idx]));
    out.push_str("\nAnswer:");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_two_items_per_roofline_and_balanced_truth() {
        let suite = generate_rq1_suite(240, 7);
        assert_eq!(suite.items.len(), 480);
        let cb = suite
            .items
            .iter()
            .filter(|i| i.truth == Boundedness::Compute)
            .count();
        assert_eq!(cb, 240);
    }

    #[test]
    fn truth_labels_are_consistent_with_the_roofline() {
        let suite = generate_rq1_suite(50, 3);
        for item in &suite.items {
            let roof = Roofline::new(item.peak_gflops, item.bandwidth_gbs);
            assert_eq!(
                roof.classify(item.ai),
                item.truth,
                "item {item:?} mislabeled"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_rq1_suite(20, 9), generate_rq1_suite(20, 9));
        assert_ne!(generate_rq1_suite(20, 9), generate_rq1_suite(20, 10));
    }

    #[test]
    fn margins_span_the_requested_range() {
        let suite = generate_rq1_suite(100, 5);
        let min = suite
            .items
            .iter()
            .map(|i| i.margin_decades)
            .fold(f64::MAX, f64::min);
        let max = suite
            .items
            .iter()
            .map(|i| i.margin_decades)
            .fold(0.0, f64::max);
        assert!(min >= 0.1 && max < 1.0);
        assert!(max - min > 0.5, "margins should spread out");
    }

    #[test]
    fn prompt_contains_examples_and_query() {
        let suite = generate_rq1_suite(10, 1);
        let prompt = render_rq1_prompt(&suite, 5, 4, false);
        assert_eq!(prompt.matches("Question:").count(), 5); // 4 shots + query
        assert_eq!(prompt.matches("Answer:").count(), 5);
        assert!(!prompt.contains("Thought:"));
        assert!(prompt.trim_end().ends_with("Answer:"));
    }

    #[test]
    fn cot_prompt_contains_thoughts_with_balance_points() {
        let suite = generate_rq1_suite(10, 1);
        let prompt = render_rq1_prompt(&suite, 0, 2, true);
        assert_eq!(prompt.matches("Thought:").count(), 2);
        assert!(prompt.contains("balance point"));
    }

    #[test]
    fn query_item_is_never_among_examples() {
        let suite = generate_rq1_suite(5, 2);
        let query = &suite.items[3];
        let prompt = render_rq1_prompt(&suite, 3, 8, false);
        // The query question appears exactly once.
        assert_eq!(prompt.matches(&question(query)).count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 examples")]
    fn single_shot_prompts_are_rejected() {
        let suite = generate_rq1_suite(5, 2);
        render_rq1_prompt(&suite, 0, 1, false);
    }

    #[test]
    fn paper_worked_example_classifies_bandwidth() {
        // Fig. 3's example: bw 45.9, peak 52.22, AI 0.6 -> Bandwidth.
        let roof = Roofline::new(52.22, 45.9);
        assert_eq!(roof.classify(0.6), Boundedness::Bandwidth);
    }
}
