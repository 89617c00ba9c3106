//! The output check every answer passes through.

use troy_analysis::Code;
use troy_service::Json;

use crate::universe::{Entry, Verdict};

/// The paper's Figure 5 optimum.
pub const FIG5_OPTIMUM: u64 = 4160;

/// What one answer counts as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// An `ok` answer that passed every check.
    Ok {
        /// Returned license cost.
        cost: u64,
        /// Whether the service claimed the cost optimal.
        proven: bool,
        /// The certificate's checksum.
        checksum: u64,
    },
    /// A typed infeasible `error` on a problem the reference proves
    /// infeasible.
    Infeasible,
    /// A typed answer other than `ok` that keeps the protocol's promises:
    /// `degraded` with a cost, no certificate and the uncertified-response
    /// code, or a `rejected` or `error` that names its kind. The tag names
    /// which. It is not a success, so it counts against `ok_ratio`, but
    /// the request was answered.
    NotOk(String),
    /// No typed answer: no response within the client budget, or a
    /// `rejected` or `error` without a kind.
    Failed(String),
    /// An answer that breaks the output contract.
    Wrong(String),
}

/// Checks one response line (`None`: no response within the client
/// budget) against the problem's reference. `first` is the cost and
/// certificate checksum of the first answer seen for the same key.
pub fn check(entry: &Entry, response: Option<&str>, first: Option<(u64, u64)>) -> Outcome {
    let Some(line) = response else {
        return Outcome::Failed("timeout".to_owned());
    };
    let Some(json) = Json::parse(line) else {
        return Outcome::Wrong("unparsable response".to_owned());
    };
    let field = |k: &str| json.get(k).and_then(Json::as_str).unwrap_or("");
    match field("status") {
        "ok" => check_ok(entry, &json, first),
        "error"
            if field("kind") == "failed" && field("message").starts_with("no design satisfies") =>
        {
            match entry.verdict {
                Verdict::Infeasible => Outcome::Infeasible,
                Verdict::Optimum { .. } => {
                    Outcome::Wrong("claims infeasible; the reference has a design".to_owned())
                }
            }
        }
        "degraded" => check_degraded(&json),
        status @ ("error" | "rejected") => match field("kind") {
            "" => Outcome::Failed(format!("{status}:untyped")),
            kind => Outcome::NotOk(format!("{status}:{kind}")),
        },
        other => Outcome::Wrong(format!("unexpected status `{other}`")),
    }
}

/// A degraded answer may have been solved against a relaxed problem, so
/// it must carry a cost but no certificate, and say that it is
/// uncertified.
fn check_degraded(json: &Json) -> Outcome {
    if json.get("cost").and_then(Json::as_u64).is_none() {
        return Outcome::Wrong("degraded without a cost".to_owned());
    }
    if json.get("certificate").is_some() {
        return Outcome::Wrong("degraded with a certificate".to_owned());
    }
    let uncertified = Code::UncertifiedResponse.as_str();
    let flagged = matches!(json.get("codes"), Some(Json::Arr(codes))
        if codes.iter().any(|c| c.as_str() == Some(uncertified)));
    if !flagged {
        return Outcome::Wrong(format!("degraded without {uncertified}"));
    }
    Outcome::NotOk("degraded".to_owned())
}

fn check_ok(entry: &Entry, json: &Json, first: Option<(u64, u64)>) -> Outcome {
    let Verdict::Optimum { cost: optimum, .. } = entry.verdict else {
        return Outcome::Wrong("ok on a problem the reference proves infeasible".to_owned());
    };
    let Some(cost) = json.get("cost").and_then(Json::as_u64) else {
        return Outcome::Wrong("ok without a cost".to_owned());
    };
    let proven = json.get("proven").and_then(Json::as_bool) == Some(true);
    if cost < optimum {
        return Outcome::Wrong(format!("cost {cost} below the reference optimum {optimum}"));
    }
    if proven && cost != optimum {
        return Outcome::Wrong(format!("proven cost {cost} != reference optimum {optimum}"));
    }
    if entry.spec.id == "fig5" && proven && cost != FIG5_OPTIMUM {
        return Outcome::Wrong(format!("Figure 5 proven at {cost}, not {FIG5_OPTIMUM}"));
    }
    let Some(cert) = json.get("certificate") else {
        return Outcome::Wrong("ok without a certificate".to_owned());
    };
    let covered = cert.get("ops_covered").and_then(Json::as_u64);
    if covered != Some(entry.ops as u64) {
        return Outcome::Wrong(format!(
            "certificate covers {covered:?} ops, the DFG has {}",
            entry.ops
        ));
    }
    if cert.get("single_vendor_safe").and_then(Json::as_bool) != Some(true) {
        return Outcome::Wrong("certificate is not single-vendor safe".to_owned());
    }
    let Some(checksum) = cert.get("checksum").and_then(Json::as_u64) else {
        return Outcome::Wrong("certificate without a checksum".to_owned());
    };
    if let Some(seen) = first {
        if seen != (cost, checksum) {
            return Outcome::Wrong(format!(
                "repeat answered (cost {cost}, checksum {checksum}), first answer was {seen:?}"
            ));
        }
    }
    Outcome::Ok {
        cost,
        proven,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Source, Spec};

    fn entry(id: &str, verdict: Verdict) -> Entry {
        Entry::new(
            Spec {
                id: id.to_owned(),
                source: Source::Builtin("polynom".to_owned()),
                catalog: "table1",
                recovery: true,
                det: 4,
                rec: 3,
                area: Some(22_000),
            },
            verdict,
            9,
        )
    }

    fn fig5() -> Entry {
        entry(
            "fig5",
            Verdict::Optimum {
                cost: FIG5_OPTIMUM,
                area: 21_000,
            },
        )
    }

    fn answer(cost: u64, proven: bool, cert: &str) -> String {
        format!(
            r#"{{"id":"r1","status":"ok","cost":{cost},"backend":"ilp","proven":{proven}{cert},"stats":{{}}}}"#
        )
    }

    const CERT: &str = r#","certificate":{"design":"polynom","ops_covered":9,"single_vendor_safe":true,"checksum":77}"#;

    #[test]
    fn an_honest_answer_passes() {
        let out = check(&fig5(), Some(&answer(4160, true, CERT)), None);
        assert_eq!(
            out,
            Outcome::Ok {
                cost: 4160,
                proven: true,
                checksum: 77
            }
        );
        // Best effort above the optimum is fine while unproven.
        assert!(matches!(
            check(&fig5(), Some(&answer(4400, false, CERT)), None),
            Outcome::Ok { .. }
        ));
    }

    #[test]
    fn tampered_answers_are_rejected() {
        let e = fig5();
        for (line, why) in [
            (answer(4000, false, CERT), "below the reference"),
            (answer(4400, true, CERT), "!= reference optimum"),
            (answer(4160, true, ""), "without a certificate"),
            (
                answer(
                    4160,
                    true,
                    &CERT.replace("\"ops_covered\":9", "\"ops_covered\":8"),
                ),
                "covers",
            ),
            (
                answer(
                    4160,
                    true,
                    &CERT.replace("true,\"checksum", "false,\"checksum"),
                ),
                "single-vendor",
            ),
        ] {
            match check(&e, Some(&line), None) {
                Outcome::Wrong(msg) => assert!(msg.contains(why), "{msg} lacks {why}"),
                other => panic!("{line} passed as {other:?}"),
            }
        }
    }

    #[test]
    fn repeats_must_match_the_first_answer() {
        let e = fig5();
        let line = answer(4160, true, CERT);
        assert!(matches!(
            check(&e, Some(&line), Some((4160, 77))),
            Outcome::Ok { .. }
        ));
        assert!(matches!(
            check(&e, Some(&line), Some((4160, 78))),
            Outcome::Wrong(_)
        ));
    }

    #[test]
    fn typed_failures_and_infeasibility() {
        let infeasible = entry("tight/x", Verdict::Infeasible);
        let proven_infeasible = r#"{"id":"r","status":"error","kind":"failed","message":"no design satisfies the constraints (proven, after 2 cycle(s) of latency relaxation)","stats":{}}"#;
        assert_eq!(
            check(&infeasible, Some(proven_infeasible), None),
            Outcome::Infeasible
        );
        assert!(matches!(
            check(&fig5(), Some(proven_infeasible), None),
            Outcome::Wrong(_)
        ));
        assert!(matches!(
            check(&infeasible, Some(&answer(4160, false, CERT)), None),
            Outcome::Wrong(_)
        ));
        let degraded = r#"{"id":"r","status":"degraded","cost":4400,"codes":["TS004"],"stats":{}}"#;
        assert_eq!(
            check(&fig5(), Some(degraded), None),
            Outcome::NotOk("degraded".to_owned())
        );
        let shed = r#"{"id":"r","status":"rejected","kind":"circuit_open","stats":{}}"#;
        assert_eq!(
            check(&fig5(), Some(shed), None),
            Outcome::NotOk("rejected:circuit_open".to_owned())
        );
        let untyped = r#"{"id":"r","status":"error","stats":{}}"#;
        assert_eq!(
            check(&fig5(), Some(untyped), None),
            Outcome::Failed("error:untyped".to_owned())
        );
        assert_eq!(
            check(&fig5(), None, None),
            Outcome::Failed("timeout".to_owned())
        );
    }

    #[test]
    fn degraded_answers_must_be_flagged_uncertified() {
        for (line, why) in [
            (
                r#"{"id":"r","status":"degraded","codes":["TS004"],"stats":{}}"#,
                "without a cost",
            ),
            (
                r#"{"id":"r","status":"degraded","cost":4400,"codes":[],"stats":{}}"#,
                "without TS004",
            ),
            (
                r#"{"id":"r","status":"degraded","cost":4400,"codes":["TS004"],"certificate":{"checksum":1},"stats":{}}"#,
                "with a certificate",
            ),
        ] {
            match check(&fig5(), Some(line), None) {
                Outcome::Wrong(msg) => assert!(msg.contains(why), "{msg} lacks {why}"),
                other => panic!("{line} passed as {other:?}"),
            }
        }
    }
}
