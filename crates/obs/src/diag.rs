//! The diagnostic vocabulary shared by every analysis layer: severities,
//! findings, the sorted report and the mutation self-test outcome.
//!
//! `bfvr-audit` (BDD graphs and set representations) and `bfvr-nlint`
//! (netlists) each bring only what is really their own: a `Pass` enum
//! implementing [`PassId`] and a witness type implementing
//! [`fmt::Display`]. Everything else — the rustc-style rendering, the
//! stable sort order and the severity tallies — lives here once.

use std::fmt;

/// How serious a finding is.
///
/// Ordered so that `Info < Warning < Error`; reports sort descending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Context the caller may want: statistics, or a pass skipped as
    /// inconclusive.
    Info,
    /// A quality problem that does not make results wrong: a leak, dead
    /// or duplicate logic, an unread signal.
    Warning,
    /// A broken invariant or a malformed input: results can no longer be
    /// trusted (or computed at all).
    Error,
}

impl Severity {
    /// Lowercase label, as rendered in diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An analysis pass with a stable identifier.
pub trait PassId: Copy + Eq {
    /// Stable pass identifier, as rendered in diagnostics
    /// (`error[bfv-support]`) and used as the report's secondary sort key.
    fn id(self) -> &'static str;
}

/// One diagnostic: a pass `P`, a severity, the path of the offending
/// object, a message and (where extractable) a witness `W`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding<P, W> {
    /// The pass that produced this finding.
    pub pass: P,
    /// How serious it is.
    pub severity: Severity,
    /// Path of the offending object, e.g. `iter[3]/bfv/component[2]` or
    /// `latch/q0`.
    pub path: String,
    /// One-line description with the concrete names and numbers.
    pub message: String,
    /// Concrete evidence, when the pass can extract it.
    pub witness: Option<W>,
}

impl<P: PassId, W: fmt::Display> fmt::Display for Finding<P, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.pass.id(), self.message)?;
        write!(f, "\n  --> {}", self.path)?;
        if let Some(w) = &self.witness {
            write!(f, "\n  witness: {w}")?;
        }
        Ok(())
    }
}

/// An accumulating collection of findings with stable, diff-friendly
/// ordering: severity (most severe first), then pass id, then path.
#[derive(Clone, Debug)]
pub struct Report<P, W> {
    findings: Vec<Finding<P, W>>,
}

impl<P, W> Default for Report<P, W> {
    fn default() -> Self {
        Report {
            findings: Vec::new(),
        }
    }
}

impl<P: PassId, W> Report<P, W> {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, finding: Finding<P, W>) {
        self.findings.push(finding);
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Whether the report holds no findings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings in sorted order (severity desc, pass id, path,
    /// message).
    #[must_use]
    pub fn sorted(&self) -> Vec<&Finding<P, W>> {
        let mut v: Vec<&Finding<P, W>> = self.findings.iter().collect();
        v.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.pass.id().cmp(b.pass.id()))
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.message.cmp(&b.message))
        });
        v
    }

    /// The most severe finding level, if any.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Whether any finding is at [`Severity::Error`] (the exit-code
    /// contract of `bfvr lint`, nonzero iff this is true; `bfvr audit`
    /// also fails on a lane that stopped short of its fixed point).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Count of findings at exactly `severity`.
    #[must_use]
    pub fn count_at(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// All findings produced by `pass`, unsorted.
    pub fn by_pass(&self, pass: P) -> impl Iterator<Item = &Finding<P, W>> {
        self.findings.iter().filter(move |f| f.pass == pass)
    }

    /// The compact `2e/3w/5i` summary recorded in trace meta headers.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}e/{}w/{}i",
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Info)
        )
    }

    /// Renders every finding in sorted order, one compiler-style block
    /// per finding, separated by blank lines.
    #[must_use]
    pub fn render(&self) -> String
    where
        W: fmt::Display,
    {
        let blocks: Vec<String> = self.sorted().iter().map(|f| f.to_string()).collect();
        blocks.join("\n\n")
    }
}

/// The result of one seeded corruption in a mutation self-test.
#[derive(Clone, Debug)]
pub struct MutationOutcome<P> {
    /// Stable mutation label, e.g. `bfv/widen-support`.
    pub label: &'static str,
    /// The pass this corruption targets.
    pub expected: P,
    /// Whether the targeted pass caught the corruption.
    pub fired: bool,
    /// Whether the targeted pass's catching finding carried a witness.
    pub with_witness: bool,
    /// The findings the harness counts, which differ by layer: the audit
    /// harness counts the whole report, because a graph corruption rarely
    /// breaks exactly one invariant; the lint harness counts only the
    /// expected pass's findings, because netlist passes emit many
    /// unrelated `info` findings.
    pub findings: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum P {
        Zeta,
        Alpha,
        Mid,
    }

    impl PassId for P {
        fn id(self) -> &'static str {
            match self {
                P::Zeta => "zeta",
                P::Alpha => "alpha",
                P::Mid => "mid",
            }
        }
    }

    fn finding(pass: P, severity: Severity, path: &str, message: &str) -> Finding<P, String> {
        Finding {
            pass,
            severity,
            path: path.to_string(),
            message: message.to_string(),
            witness: None,
        }
    }

    /// The sort key is severity descending, then the pass *id string*
    /// (not the enum's declaration order), then path, then message.
    #[test]
    fn report_sorts_by_severity_then_pass_id_then_path_then_message() {
        let mut r = Report::new();
        r.push(finding(P::Mid, Severity::Warning, "b", "m"));
        r.push(finding(P::Zeta, Severity::Error, "a", "m"));
        r.push(finding(P::Alpha, Severity::Error, "z", "m"));
        r.push(finding(P::Mid, Severity::Warning, "a", "y"));
        r.push(finding(P::Mid, Severity::Warning, "a", "x"));
        r.push(finding(P::Alpha, Severity::Info, "a", "m"));
        let order: Vec<(&str, &str, &str)> = r
            .sorted()
            .iter()
            .map(|f| (f.pass.id(), f.path.as_str(), f.message.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("alpha", "z", "m"),
                ("zeta", "a", "m"),
                ("mid", "a", "x"),
                ("mid", "a", "y"),
                ("mid", "b", "m"),
                ("alpha", "a", "m"),
            ]
        );
        assert!(r.has_errors());
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert_eq!(r.count_at(Severity::Warning), 3);
        assert_eq!(r.by_pass(P::Mid).count(), 3);
        assert_eq!(r.summary(), "2e/3w/1i");
    }

    #[test]
    fn empty_report_has_no_errors() {
        let r: Report<P, String> = Report::new();
        assert!(r.is_empty() && !r.has_errors());
        assert_eq!(r.max_severity(), None);
        assert_eq!(r.summary(), "0e/0w/0i");
        assert_eq!(r.render(), "");
    }

    #[test]
    fn findings_render_compiler_style_separated_by_blank_lines() {
        let mut r = Report::new();
        let mut with_witness = finding(P::Alpha, Severity::Error, "iter[3]/x", "broken");
        with_witness.witness = Some("v5=1".to_string());
        r.push(finding(P::Mid, Severity::Warning, "latch/q0", "dead"));
        r.push(with_witness);
        assert_eq!(
            r.render(),
            "error[alpha]: broken\n  --> iter[3]/x\n  witness: v5=1\n\n\
             warning[mid]: dead\n  --> latch/q0"
        );
    }
}
