//! The source-classification system prompt (paper Fig. 4), shared by RQ2
//! (zero-shot, pseudo-code examples) and RQ3 (few-shot, real code
//! examples).

use pce_roofline::HardwareSpec;

use crate::examples::examples_for;

/// Whether the prompt carries pseudo-code (RQ2) or real code (RQ3)
/// examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShotStyle {
    /// RQ2: pseudo-code examples, minimal instructions.
    ZeroShot,
    /// RQ3: two real in-language code examples.
    FewShot,
}

/// Everything interpolated into the Fig.-4 template.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRequest {
    /// `"CUDA"` or `"OMP"`.
    pub language: String,
    /// Kernel name the model is asked about.
    pub kernel_name: String,
    /// Target hardware.
    pub hardware: HardwareSpec,
    /// Launch geometry string `"(gx,gy,gz) and (bx,by,bz)"`.
    pub geometry: String,
    /// Command-line arguments of the executable.
    pub args: Vec<String>,
    /// Concatenated source code of the program.
    pub source: String,
}

/// Render the full classification prompt.
pub fn render_classify_prompt(req: &ClassifyRequest, style: ShotStyle) -> String {
    let hw = &req.hardware;
    let mut out = String::with_capacity(req.source.len() + 2048);
    out.push_str(
        "You are a GPU performance analysis expert that classifies kernels into \
         Arithmetic Intensity Roofline model categories based on their source code \
         characteristics. Your task is to provide one of the following performance \
         boundedness classifications: Compute or Bandwidth.\n\n\
         A kernel is considered Compute bound if its performance is primarily limited \
         by the number of operations it performs, and Bandwidth bound if its \
         performance is primarily limited by the rate at which data can be moved \
         between memory and processing units.\n\n\
         Provide only one word as your response, chosen from the set: \
         ['Compute', 'Bandwidth'].\n\nExamples:\n\n",
    );
    for (i, example) in examples_for(style, &req.language).iter().enumerate() {
        out.push_str(&format!(
            "Example {}:\nKernel Source Code{}:\n{}\nResponse: {}\n\n",
            i + 1,
            if style == ShotStyle::ZeroShot {
                " (simplified)"
            } else {
                ""
            },
            example.code,
            example.label.answer_token()
        ));
    }
    out.push_str(&format!(
        "Now, analyze the following source codes for the requested kernel of the \
         specified hardware.\n\n\
         Classify the {lang} kernel called {kernel} as Bandwidth or Compute bound. \
         The system it will execute on is a {gpu} with:\n\
         - peak single-precision performance of {sp} GFLOP/s\n\
         - peak double-precision performance of {dp} GFLOP/s\n\
         - peak integer performance of {int} GINTOP/s\n\
         - max bandwidth of {bw} GB/s\n\n\
         The block and grid sizes of the invoked kernel are {geometry}, respectively. \
         The executable running this kernel is launched with the following \
         command-line arguments: {args}.\n\n\
         Below is the source code of the requested {lang} kernel:\n\n{source}\n",
        lang = req.language,
        kernel = req.kernel_name,
        gpu = hw.name,
        sp = hw.peak_sp_gflops,
        dp = hw.peak_dp_gflops,
        int = hw.peak_int_giops,
        bw = hw.bandwidth_gbs,
        geometry = req.geometry,
        args = req.args.join(" "),
        source = req.source,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ClassifyRequest {
        ClassifyRequest {
            language: "CUDA".into(),
            kernel_name: "saxpy".into(),
            hardware: HardwareSpec::rtx_3080(),
            geometry: "(4096,1,1) and (256,1,1)".into(),
            args: vec!["1048576".into(), "100".into()],
            source: "__global__ void saxpy(...) { }".into(),
        }
    }

    #[test]
    fn prompt_carries_all_hardware_numbers() {
        let prompt = render_classify_prompt(&request(), ShotStyle::ZeroShot);
        for needle in ["29770", "465.1", "14885", "760"] {
            assert!(prompt.contains(needle), "missing {needle}");
        }
        assert!(prompt.contains("NVIDIA GeForce RTX 3080"));
    }

    #[test]
    fn prompt_carries_kernel_identity_and_launch() {
        let prompt = render_classify_prompt(&request(), ShotStyle::ZeroShot);
        assert!(prompt.contains("kernel called saxpy"));
        assert!(prompt.contains("(4096,1,1) and (256,1,1)"));
        assert!(prompt.contains("arguments: 1048576 100"));
        assert!(prompt.contains("__global__ void saxpy"));
    }

    #[test]
    fn zero_shot_uses_pseudo_code() {
        let prompt = render_classify_prompt(&request(), ShotStyle::ZeroShot);
        assert!(prompt.contains("(simplified)"));
        assert!(prompt.contains("load_data(large_array)"));
    }

    #[test]
    fn few_shot_uses_real_language_examples() {
        let prompt = render_classify_prompt(&request(), ShotStyle::FewShot);
        assert!(prompt.contains("power_iter"));
        assert!(!prompt.contains("(simplified)"));

        let omp_req = ClassifyRequest {
            language: "OMP".into(),
            ..request()
        };
        let omp_prompt = render_classify_prompt(&omp_req, ShotStyle::FewShot);
        assert!(omp_prompt.contains("#pragma omp target"));
        assert!(!omp_prompt.contains("power_iter"));
    }

    #[test]
    fn both_class_tokens_are_demonstrated() {
        let prompt = render_classify_prompt(&request(), ShotStyle::ZeroShot);
        assert!(prompt.contains("Response: Compute"));
        assert!(prompt.contains("Response: Bandwidth"));
    }

    #[test]
    fn source_code_is_appended_at_the_end() {
        // §2.2: "concatenate all the source files ... appended to the end
        // of the LLM query prompt".
        let prompt = render_classify_prompt(&request(), ShotStyle::ZeroShot);
        let src_pos = prompt.find("__global__ void saxpy").unwrap();
        assert!(src_pos > prompt.len() - 60);
    }
}
