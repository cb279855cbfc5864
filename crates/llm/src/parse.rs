//! Prompt re-parsing: the surrogate engines recover structured facts from
//! the prompt text, exactly as a hosted model must.
//!
//! Everything here is tolerant, hand-rolled text scanning — no panics on
//! malformed prompts. The top-level parsers return structured
//! [`PceError::Parse`] failures naming the first missing marker, which the
//! engine degrades to a prior-driven guess (which is also what real models
//! do with garbled context) and the response accounting can count.

use std::collections::BTreeMap;

use pce_fault::PceError;

/// The `Parse` error for a marker the scanner could not find.
fn missing(marker: &str) -> PceError {
    PceError::parse(format!("missing '{marker}' marker"))
}

/// A parsed RQ1 roofline question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rq1Question {
    /// Max bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Peak performance, GFLOP/s.
    pub peak_gflops: f64,
    /// Queried arithmetic intensity, FLOP/byte.
    pub ai: f64,
}

/// A parsed RQ2/RQ3 classification request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyQuestion {
    /// `"CUDA"` or `"OMP"` (as written in the prompt).
    pub language: String,
    /// Kernel name.
    pub kernel_name: String,
    /// Peak SP GFLOP/s.
    pub peak_sp: f64,
    /// Peak DP GFLOP/s.
    pub peak_dp: f64,
    /// Peak INT GINTOP/s.
    pub peak_int: f64,
    /// Bandwidth GB/s.
    pub bandwidth: f64,
    /// CLI arguments.
    pub args: Vec<String>,
    /// The source-code block.
    pub source: String,
}

/// Extract the first floating-point number after `marker` in `text`,
/// searching from `from`. Returns the value and the index just past it.
fn number_after(text: &str, marker: &str, from: usize) -> Option<(f64, usize)> {
    let at = text[from..].find(marker)? + from + marker.len();
    let rest = &text[at..];
    let start = rest.find(|c: char| c.is_ascii_digit())?;
    let tail = &rest[start..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '-' || c == '+'))
        .unwrap_or(tail.len());
    let mut slice = &tail[..end];
    // Trim trailing punctuation that the scanner may have swallowed.
    while slice.ends_with(['.', '-', '+', 'e']) {
        slice = &slice[..slice.len() - 1];
    }
    let value: f64 = slice.parse().ok()?;
    Some((value, at + start + slice.len()))
}

/// Parse the **last** RQ1 question in a (possibly few-shot) prompt.
///
/// The `Err` names the first marker the scanner could not find.
pub fn parse_rq1(prompt: &str) -> Result<Rq1Question, PceError> {
    let last_q = prompt
        .rfind("Question:")
        .ok_or_else(|| missing("Question:"))?;
    let q = &prompt[last_q..];
    let (bandwidth_gbs, _) =
        number_after(q, "max bandwidth of", 0).ok_or_else(|| missing("max bandwidth of"))?;
    let (peak_gflops, _) =
        number_after(q, "peak performance of", 0).ok_or_else(|| missing("peak performance of"))?;
    let (ai, _) = number_after(q, "Arithmetic Intensity of", 0)
        .ok_or_else(|| missing("Arithmetic Intensity of"))?;
    Ok(Rq1Question {
        bandwidth_gbs,
        peak_gflops,
        ai,
    })
}

/// Whether a prompt looks like an RQ1 roofline-calculation question.
pub fn is_rq1_prompt(prompt: &str) -> bool {
    prompt.contains("does the roofline model consider")
        && prompt.contains("Arithmetic Intensity of")
}

/// Whether CoT examples are present (RQ1 prompts with "Thought:" lines).
pub(crate) fn has_cot_examples(prompt: &str) -> bool {
    prompt.contains("Thought:")
}

/// Whether a classification prompt's example section carries *real* code
/// (RQ3) rather than pseudo-code (RQ2): real examples contain actual
/// kernel syntax before the "Now, analyze" marker.
pub(crate) fn has_real_examples(prompt: &str) -> bool {
    let example_section = match prompt.find("Now, analyze") {
        Some(at) => &prompt[..at],
        None => prompt,
    };
    example_section.contains("__global__") || example_section.contains("#pragma omp")
}

/// Parse a classification prompt (Fig. 4 template).
///
/// The `Err` names the first marker the scanner could not find.
pub fn parse_classify(prompt: &str) -> Result<ClassifyQuestion, PceError> {
    let at = prompt
        .find("Classify the ")
        .ok_or_else(|| missing("Classify the "))?;
    let rest = &prompt[at + "Classify the ".len()..];
    let mut words = rest.split_whitespace();
    let language = words
        .next()
        .ok_or_else(|| PceError::parse("missing language after 'Classify the '"))?
        .to_string();
    // "... kernel called NAME as Bandwidth or Compute bound."
    let name_at = rest
        .find("kernel called ")
        .ok_or_else(|| missing("kernel called "))?
        + "kernel called ".len();
    let kernel_name: String = rest[name_at..]
        .split_whitespace()
        .next()
        .ok_or_else(|| PceError::parse("missing kernel name after 'kernel called '"))?
        .trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .to_string();

    let (peak_sp, _) = number_after(prompt, "peak single-precision performance of", 0)
        .ok_or_else(|| missing("peak single-precision performance of"))?;
    let (peak_dp, _) = number_after(prompt, "peak double-precision performance of", 0)
        .ok_or_else(|| missing("peak double-precision performance of"))?;
    let (peak_int, _) = number_after(prompt, "peak integer performance of", 0)
        .ok_or_else(|| missing("peak integer performance of"))?;
    let (bandwidth, _) =
        number_after(prompt, "max bandwidth of", 0).ok_or_else(|| missing("max bandwidth of"))?;

    let args = {
        let marker = "command-line arguments: ";
        match prompt.find(marker) {
            Some(p) => {
                let tail = &prompt[p + marker.len()..];
                let end = tail.find('.').unwrap_or(tail.len());
                tail[..end]
                    .split_whitespace()
                    .map(|s| s.to_string())
                    .collect()
            }
            None => Vec::new(),
        }
    };

    let src_marker = "Below is the source code";
    let src_at = prompt.find(src_marker).ok_or_else(|| missing(src_marker))?;
    let source = prompt[src_at..]
        .split_once(":\n")
        .map(|x| x.1)
        .unwrap_or("")
        .to_string();

    Ok(ClassifyQuestion {
        language,
        kernel_name,
        peak_sp,
        peak_dp,
        peak_int,
        bandwidth,
        args,
        source,
    })
}

/// Bind positional CLI arguments to source variable names by reading the
/// program's own `argv` parsing, e.g.
/// `long n = (argc > 1) ? (long)atol(argv[1]) : 1048576;` binds `n` to
/// `args[0]`. Falls back to the declared default when the argument is
/// absent. This is exactly the inference a careful reader performs.
pub fn bind_args_to_params(source: &str, args: &[String]) -> BTreeMap<String, u64> {
    let mut params = BTreeMap::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        // Expect: TYPE NAME = (argc > K) ? ... : DEFAULT;
        let Some(eq) = trimmed.find("= (argc >") else {
            continue;
        };
        let head = trimmed[..eq].trim();
        let Some(name) = head.split_whitespace().last() else {
            continue;
        };
        let tail = &trimmed[eq..];
        let Some((idx, after_idx)) = number_after(tail, "argc >", 0) else {
            continue;
        };
        let arg_pos = idx as usize; // argv[K] is the K'th positional arg
        let value = args
            .get(arg_pos.wrapping_sub(1))
            .and_then(|a| a.parse::<f64>().ok())
            .or_else(|| {
                // Default: the number after the ':'.
                let colon = tail[after_idx..].rfind(':')?;
                number_after(&tail[after_idx + colon..], ":", 0).map(|(v, _)| v)
            });
        if let Some(v) = value {
            if v >= 0.0 && v.is_finite() {
                params.insert(name.to_string(), v as u64);
            }
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    const RQ1: &str = "Question: Given a GPU having a global memory with a max bandwidth \
        of 45.9 GB/s and a peak performance of 52.22 GFLOP/s, if a program executed with \
        an Arithmetic Intensity of 0.6 FLOP/Byte and a performance of 19.4 GFLOP/s, does \
        the roofline model consider the program as compute-bound or bandwidth-bound?\nAnswer:";

    #[test]
    fn parses_the_fig3_example() {
        let q = parse_rq1(RQ1).unwrap();
        assert_eq!(q.bandwidth_gbs, 45.9);
        assert_eq!(q.peak_gflops, 52.22);
        assert_eq!(q.ai, 0.6);
        assert!(is_rq1_prompt(RQ1));
        assert!(!has_cot_examples(RQ1));
    }

    #[test]
    fn parses_the_last_question_in_fewshot_prompts() {
        let fewshot = format!(
            "Question: Given a GPU having a global memory with a max bandwidth of 100 GB/s \
             and a peak performance of 200 GFLOP/s, if a program executed with an Arithmetic \
             Intensity of 5.0 FLOP/Byte and a performance of 150 GFLOP/s, does the roofline \
             model consider the program as compute-bound or bandwidth-bound?\nAnswer: Compute\n\n{RQ1}"
        );
        let q = parse_rq1(&fewshot).unwrap();
        assert_eq!(q.ai, 0.6); // the query, not the example
    }

    #[test]
    fn classify_prompt_round_trips_through_renderer() {
        use pce_roofline::HardwareSpec;
        let req = pce_prompt_compat_render();
        let parsed = parse_classify(&req).unwrap();
        assert_eq!(parsed.language, "CUDA");
        assert_eq!(parsed.kernel_name, "saxpy");
        let hw = HardwareSpec::rtx_3080();
        assert_eq!(parsed.peak_sp, hw.peak_sp_gflops);
        assert_eq!(parsed.peak_dp, hw.peak_dp_gflops);
        assert_eq!(parsed.bandwidth, hw.bandwidth_gbs);
        assert_eq!(parsed.args, vec!["1048576", "100"]);
        assert!(parsed.source.contains("__global__"));
    }

    /// A hand-built Fig.-4-shaped prompt (avoiding a circular dev-dep on
    /// pce-prompt; the cross-crate round-trip test lives at workspace level).
    fn pce_prompt_compat_render() -> String {
        let hw = pce_roofline::HardwareSpec::rtx_3080();
        format!(
            "You are a GPU performance analysis expert...\n\n\
             Classify the CUDA kernel called saxpy as Bandwidth or Compute bound. \
             The system it will execute on is a {} with:\n\
             - peak single-precision performance of {} GFLOP/s\n\
             - peak double-precision performance of {} GFLOP/s\n\
             - peak integer performance of {} GINTOP/s\n\
             - max bandwidth of {} GB/s\n\n\
             The block and grid sizes of the invoked kernel are (4096,1,1) and (256,1,1), \
             respectively. The executable running this kernel is launched with the \
             following command-line arguments: 1048576 100.\n\n\
             Below is the source code of the requested CUDA kernel:\n\n\
             __global__ void saxpy(long n, float a, const float* x, float* y) {{ }}\n",
            hw.name, hw.peak_sp_gflops, hw.peak_dp_gflops, hw.peak_int_giops, hw.bandwidth_gbs
        )
    }

    #[test]
    fn arg_binding_reads_argv_parsing() {
        let src = "int main(int argc, char* argv[]) {\n\
                   \x20 long n = (argc > 1) ? (long)atol(argv[1]) : 1048576;\n\
                   \x20 int iters = (argc > 2) ? (int)atol(argv[2]) : 100;\n";
        let params = bind_args_to_params(src, &["4096".to_string(), "7".to_string()]);
        assert_eq!(params["n"], 4096);
        assert_eq!(params["iters"], 7);
    }

    #[test]
    fn arg_binding_falls_back_to_defaults() {
        let src = "  long dim = (argc > 1) ? (long)atol(argv[1]) : 2048;\n";
        let params = bind_args_to_params(src, &[]);
        assert_eq!(params["dim"], 2048);
    }

    #[test]
    fn malformed_prompts_parse_to_structured_errors() {
        assert!(parse_rq1("what is a roofline?").is_err());
        assert!(parse_classify("classify this please").is_err());
        assert!(bind_args_to_params("int main() {}", &[]).is_empty());
    }

    #[test]
    fn rq1_errors_name_the_first_missing_marker() {
        let e = parse_rq1("no question here").unwrap_err();
        assert_eq!(e.to_string(), "parse error: missing 'Question:' marker");
        let e = parse_rq1("Question: about rooflines").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing 'max bandwidth of' marker"
        );
        let e = parse_rq1("Question: max bandwidth of 10 GB/s").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing 'peak performance of' marker"
        );
        let e = parse_rq1("Question: max bandwidth of 10 GB/s, peak performance of 20 GFLOP/s")
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing 'Arithmetic Intensity of' marker"
        );
    }

    #[test]
    fn classify_errors_name_the_first_missing_marker() {
        let e = parse_classify("no template at all").unwrap_err();
        assert_eq!(e.to_string(), "parse error: missing 'Classify the ' marker");
        let e = parse_classify("Classify the ").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing language after 'Classify the '"
        );
        let e = parse_classify("Classify the CUDA thing").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing 'kernel called ' marker"
        );
        let e = parse_classify("Classify the CUDA kernel called saxpy as bound.").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error: missing 'peak single-precision performance of' marker"
        );
        // All parse errors are retryable: a salted retry can repair a
        // malformed response.
        assert!(e.retryable());
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn number_extraction_handles_punctuation() {
        let (v, _) = number_after("max bandwidth of 760 GB/s,", "max bandwidth of", 0).unwrap();
        assert_eq!(v, 760.0);
        let (v, _) = number_after("performance of 465.1 GFLOP/s", "performance of", 0).unwrap();
        assert_eq!(v, 465.1);
    }
}
