//! The workspace-wide typed error taxonomy.

/// Every way the harness's service boundary can fail, with the
/// retryability classification a request loop needs.
///
/// The taxonomy mirrors what the paper's automation sees from hosted
/// endpoints: malformed answers (`Parse`), request timeouts (`Timeout`),
/// content refusals (`Refusal`), misconfigured requests (`Spec`),
/// transient service errors (`Io`), requests shed under load
/// (`Overload`), and raw source rejected by static diagnostics (`Lint`).
#[derive(Debug, Clone, PartialEq)]
pub enum PceError {
    /// Text (a response or a prompt) did not contain what the parser
    /// required. Retryable for responses: re-asking a model can yield a
    /// well-formed answer.
    Parse {
        /// What failed to parse, naming the missing marker or field.
        what: String,
    },
    /// A request exceeded its deadline. Retryable.
    Timeout {
        /// The simulated deadline that elapsed, in milliseconds.
        ms: u64,
    },
    /// The model declined to answer. Not retryable: re-asking the same
    /// model the same question yields the same refusal.
    Refusal {
        /// The refusing model's name.
        model: String,
    },
    /// An invalid specification or configuration (unknown model, empty
    /// hardware axis, a CPU preset on the GPU axis, ...). Not retryable:
    /// the request itself is wrong.
    Spec {
        /// What was invalid.
        what: String,
    },
    /// A transient transport/service error (connection reset, 5xx).
    /// Retryable.
    Io {
        /// What went wrong.
        what: String,
    },
    /// The server shed the request under load: the admission queue was
    /// full, the target model's circuit breaker was open, or the server
    /// was draining. Retryable — backpressure is a transient property of
    /// the *server*, so a client that backs off may be admitted later.
    Overload {
        /// Why the request was shed.
        what: String,
    },
    /// Submitted raw kernel source failed static hazard diagnostics
    /// (data race, missing barrier, missing reduction clause, ...). Not
    /// retryable: the diagnostics pass is deterministic, so resubmitting
    /// the same source yields the same rejection.
    Lint {
        /// The error-severity diagnostics, one `rule: message` per entry.
        what: String,
    },
}

impl PceError {
    /// Build a [`PceError::Parse`] from anything displayable.
    pub fn parse(what: impl Into<String>) -> PceError {
        PceError::Parse { what: what.into() }
    }

    /// Build a [`PceError::Spec`] from anything displayable.
    pub fn spec(what: impl Into<String>) -> PceError {
        PceError::Spec { what: what.into() }
    }

    /// Build a [`PceError::Io`] from anything displayable.
    pub fn io(what: impl Into<String>) -> PceError {
        PceError::Io { what: what.into() }
    }

    /// Build a [`PceError::Overload`] from anything displayable.
    pub fn overload(what: impl Into<String>) -> PceError {
        PceError::Overload { what: what.into() }
    }

    /// Build a [`PceError::Lint`] from anything displayable.
    pub fn lint(what: impl Into<String>) -> PceError {
        PceError::Lint { what: what.into() }
    }

    /// Whether a bounded retry loop should re-issue the request.
    ///
    /// `Timeout`, `Io`, and `Overload` model transient service
    /// conditions; `Parse` covers malformed *responses*, which a salted
    /// retry can repair. `Refusal`, `Spec`, and `Lint` are stable
    /// properties of the request and retrying them only burns budget.
    pub fn retryable(&self) -> bool {
        match self {
            PceError::Parse { .. }
            | PceError::Timeout { .. }
            | PceError::Io { .. }
            | PceError::Overload { .. } => true,
            PceError::Refusal { .. } | PceError::Spec { .. } | PceError::Lint { .. } => false,
        }
    }

    /// Short stable tag for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            PceError::Parse { .. } => "parse",
            PceError::Timeout { .. } => "timeout",
            PceError::Refusal { .. } => "refusal",
            PceError::Spec { .. } => "spec",
            PceError::Io { .. } => "io",
            PceError::Overload { .. } => "overload",
            PceError::Lint { .. } => "lint",
        }
    }
}

impl std::fmt::Display for PceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PceError::Parse { what } => write!(f, "parse error: {what}"),
            PceError::Timeout { ms } => write!(f, "request timed out after {ms} ms"),
            PceError::Refusal { model } => write!(f, "model '{model}' refused to answer"),
            PceError::Spec { what } => write!(f, "invalid spec: {what}"),
            PceError::Io { what } => write!(f, "transient service error: {what}"),
            PceError::Overload { what } => write!(f, "overload: {what}"),
            PceError::Lint { what } => write!(f, "lint rejected: {what}"),
        }
    }
}

impl std::error::Error for PceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<PceError> {
        vec![
            PceError::parse("missing 'Question:' marker"),
            PceError::Timeout { ms: 30_000 },
            PceError::Refusal { model: "o1".into() },
            PceError::spec("model 'gpt-6' is not in the zoo"),
            PceError::io("connection reset by peer"),
            PceError::overload("admission queue full (depth 8)"),
            PceError::lint("shared-race: write of buf[tid] may race"),
        ]
    }

    #[test]
    fn display_messages_name_the_failure() {
        let msgs: Vec<String> = all_variants().iter().map(|e| e.to_string()).collect();
        assert_eq!(msgs[0], "parse error: missing 'Question:' marker");
        assert_eq!(msgs[1], "request timed out after 30000 ms");
        assert_eq!(msgs[2], "model 'o1' refused to answer");
        assert_eq!(msgs[3], "invalid spec: model 'gpt-6' is not in the zoo");
        assert_eq!(msgs[4], "transient service error: connection reset by peer");
        assert_eq!(msgs[5], "overload: admission queue full (depth 8)");
        assert_eq!(
            msgs[6],
            "lint rejected: shared-race: write of buf[tid] may race"
        );
    }

    #[test]
    fn retryability_classification() {
        let by_kind: std::collections::BTreeMap<&str, bool> = all_variants()
            .iter()
            .map(|e| (e.kind(), e.retryable()))
            .collect();
        assert!(by_kind["parse"]);
        assert!(by_kind["timeout"]);
        assert!(by_kind["io"]);
        assert!(by_kind["overload"]);
        assert!(!by_kind["refusal"]);
        assert!(!by_kind["spec"]);
        assert!(!by_kind["lint"]);
    }

    #[test]
    fn error_trait_is_usable_as_a_box() {
        let boxed: Box<dyn std::error::Error> = Box::new(PceError::Timeout { ms: 5 });
        assert!(boxed.to_string().contains("5 ms"));
    }
}
