//! The protocol-contract audit.
//!
//! Every protocol in the workspace carries a structural contract: a
//! declared automorphism group and per-atom relabeling-invariance
//! declarations. The dynamic test suite spot-checks these on whatever the
//! corpus happens to exercise; this pass certifies them exhaustively on
//! enumerated universes, one rule per contract clause:
//!
//! * `symmetry-not-closed` — the declared group is not an automorphism
//!   group of the enumerated universe ([`check_closure`] fails);
//! * `group-order-exceeded` — the declared group's order is above
//!   [`MAX_GROUP_ORDER`], so quotient machinery would refuse to expand
//!   it (checked with a bounded closure count — never by expanding);
//! * `atom-invariance-unsound` — an atom declared `Invariant` changes
//!   verdict under some group element (soundness);
//! * `atom-invariance-missing` — an atom declared `Dependent` is in
//!   fact invariant under every group element (completeness: the
//!   declaration forfeits quotient evaluation it is entitled to);
//! * `atom-not-wellformed` — an atom distinguishes interleavings of
//!   the same per-process computations, violating the paper's
//!   well-formedness condition for predicates.

use crate::report::{AnalysisReport, Finding, Pass};
use hpl_core::{check_closure, enumerate, CoreError, EnumerationLimits};
use hpl_core::{Interpretation, Protocol, ProtocolUniverse};
use hpl_model::symmetry::MAX_GROUP_ORDER;
use hpl_model::{AtomInvariance, Permutation, ProcessId, SymmetryGroup};
use hpl_protocols::{failure, gossip, token_bus, tracking, two_generals};

/// One protocol under audit: its enumerated universe, interpretation,
/// and declared symmetry group.
#[derive(Debug)]
pub struct ProtocolEntry {
    /// Registry name (mirrors the `repro` workload names).
    pub name: &'static str,
    /// The enumerated universe.
    pub pu: ProtocolUniverse,
    /// The atoms registered for this protocol.
    pub interp: Interpretation,
    /// The declared automorphism group.
    pub group: SymmetryGroup,
}

/// The workspace protocol registry, mirroring the `repro` registration
/// sites. Depths are kept small — the audit certifies declarations,
/// not scale.
///
/// # Errors
///
/// Propagates enumeration budget errors.
pub fn registry() -> Result<Vec<ProtocolEntry>, CoreError> {
    let mut out = Vec::new();
    {
        let p = token_bus::TokenBus::with_chatter(3, 2);
        let group = p.symmetry();
        let pu = enumerate(&p, EnumerationLimits::depth(6))?;
        let mut interp = Interpretation::new();
        token_bus::token_atoms(&mut interp, 3);
        out.push(ProtocolEntry {
            name: "token_bus",
            pu,
            interp,
            group,
        });
    }
    {
        let p = token_bus::BroadcastBus::with_chatter(3, 1);
        let group = p.symmetry();
        let pu = enumerate(&p, EnumerationLimits::depth(5))?;
        let mut interp = Interpretation::new();
        token_bus::token_atoms(&mut interp, 3);
        out.push(ProtocolEntry {
            name: "token_star",
            pu,
            interp,
            group,
        });
    }
    {
        let p = gossip::PushGossip { n: 3 };
        let group = p.symmetry();
        let pu = enumerate(&p, EnumerationLimits::depth(5))?;
        let mut interp = Interpretation::new();
        gossip::rumor_atom(&mut interp);
        interp.register("p2-informed", |c| {
            c.iter()
                .any(|e| e.is_on(ProcessId::new(2)) && e.is_receive())
        });
        out.push(ProtocolEntry {
            name: "gossip_push",
            pu,
            interp,
            group,
        });
    }
    {
        let group = two_generals::TwoGenerals::new(3).symmetry();
        let pu = two_generals::universe(3, 6)?;
        let mut interp = Interpretation::new();
        two_generals::attack_atom(&mut interp);
        out.push(ProtocolEntry {
            name: "two_generals",
            pu,
            interp,
            group,
        });
    }
    {
        let p = failure::CrashableWorker { max_reports: 2 };
        let group = p.symmetry();
        let pu = enumerate(&p, EnumerationLimits::depth(5))?;
        let mut interp = Interpretation::new();
        interp.register("crashed", failure::crashed);
        out.push(ProtocolEntry {
            name: "crashable_worker",
            pu,
            interp,
            group,
        });
    }
    {
        let p = tracking::Toggler { max_toggles: 2 };
        let group = p.symmetry();
        let pu = enumerate(&p, EnumerationLimits::depth(5))?;
        let mut interp = Interpretation::new();
        interp.register("bit", tracking::bit);
        out.push(ProtocolEntry {
            name: "toggler",
            pu,
            interp,
            group,
        });
    }
    Ok(out)
}

/// Audits the full workspace registry.
///
/// # Errors
///
/// Propagates enumeration budget errors.
pub fn audit() -> Result<AnalysisReport, CoreError> {
    let mut report = AnalysisReport::default();
    for entry in registry()? {
        audit_entry(&entry, &mut report);
    }
    Ok(report)
}

/// Audits one protocol entry against every per-protocol rule.
pub fn audit_entry(entry: &ProtocolEntry, report: &mut AnalysisReport) {
    report.protocols_audited += 1;
    let loc = format!("protocol:{}", entry.name);
    let n = entry.pu.universe().system_size();

    let order = match bounded_order(&entry.group, n) {
        Ok(order) => order,
        Err(at_least) => {
            report.findings.push(Finding {
                pass: Pass::Contract,
                rule: "group-order-exceeded",
                file: loc,
                line: 0,
                message: format!(
                    "declared group order is at least {at_least}, above \
                     MAX_GROUP_ORDER = {MAX_GROUP_ORDER} — quotient machinery \
                     will refuse to expand it"
                ),
            });
            return;
        }
    };
    debug_assert!(order <= MAX_GROUP_ORDER);
    let elements = entry.group.elements_for(n);

    if let Err(why) = check_closure(&entry.pu, &elements) {
        report.findings.push(Finding {
            pass: Pass::Contract,
            rule: "symmetry-not-closed",
            file: loc.clone(),
            line: 0,
            message: why,
        });
    }
    for id in entry
        .interp
        .validate_symmetry(entry.pu.universe(), &elements)
    {
        report.findings.push(Finding {
            pass: Pass::Contract,
            rule: "atom-invariance-unsound",
            file: loc.clone(),
            line: 0,
            message: format!(
                "atom `{}` is declared Invariant but changes verdict under a \
                 group element",
                entry.interp.name(id)
            ),
        });
    }
    wellformedness_findings(&loc, entry.pu.universe(), &entry.interp, report);
    if elements.len() > 1 {
        for id in entry.interp.ids() {
            if entry.interp.invariance(id) != AtomInvariance::Dependent {
                continue;
            }
            if invariant_on(&entry.interp, id, entry.pu.universe(), &elements) {
                report.findings.push(Finding {
                    pass: Pass::Contract,
                    rule: "atom-invariance-missing",
                    file: loc.clone(),
                    line: 0,
                    message: format!(
                        "atom `{}` is declared Dependent but is invariant under \
                         every group element — declare it Invariant to regain \
                         quotient evaluation",
                        entry.interp.name(id)
                    ),
                });
            }
        }
    }
}

/// Emits an `atom-not-wellformed` finding for every atom that violates
/// the paper's well-formedness condition on the given universe
/// (`x [D] y ⇒ b at x = b at y`). Shared by the per-protocol audit and
/// the seeded fixture, which needs a hand-built universe — enumerated
/// ones collapse interleavings, so the condition can only fail on
/// universes that actually contain two orderings of the same
/// per-process computations.
fn wellformedness_findings(
    loc: &str,
    universe: &hpl_core::Universe,
    interp: &Interpretation,
    report: &mut AnalysisReport,
) {
    for id in interp.validate(universe) {
        report.findings.push(Finding {
            pass: Pass::Contract,
            rule: "atom-not-wellformed",
            file: loc.to_owned(),
            line: 0,
            message: format!(
                "atom `{}` distinguishes interleavings of identical per-process \
                 computations",
                interp.name(id)
            ),
        });
    }
}

/// Whether an atom's verdict is unchanged by every non-identity group
/// element on every member of the universe.
fn invariant_on(
    interp: &Interpretation,
    id: hpl_core::AtomId,
    universe: &hpl_core::Universe,
    elements: &[Permutation],
) -> bool {
    for (_, x) in universe.iter() {
        let here = interp.eval(id, x);
        for pi in elements {
            if pi.is_identity() {
                continue;
            }
            if interp.eval(id, &x.permuted(pi)) != here {
                return false;
            }
        }
    }
    true
}

/// The order of a declared group, computed without ever materialising
/// more than [`MAX_GROUP_ORDER`] elements: arithmetic for the named
/// variants, a capped closure walk for generated ones. `Err(bound)`
/// means the order is at least `bound`, which is above the cap.
fn bounded_order(group: &SymmetryGroup, n: usize) -> Result<usize, usize> {
    let capped = |order: usize| {
        if order > MAX_GROUP_ORDER {
            Err(order)
        } else {
            Ok(order)
        }
    };
    match group {
        SymmetryGroup::Trivial => Ok(1),
        SymmetryGroup::Rotations { n } => capped((*n).max(1)),
        SymmetryGroup::Full { n } => {
            let mut order = 1usize;
            for k in 2..=*n {
                order = match order.checked_mul(k) {
                    Some(o) if o <= MAX_GROUP_ORDER => o,
                    _ => return Err(MAX_GROUP_ORDER + 1),
                };
            }
            Ok(order)
        }
        SymmetryGroup::Generated(gens) => {
            use std::collections::BTreeSet;
            let image = |p: &Permutation| (0..p.len()).map(|i| p.image_of(i)).collect::<Vec<_>>();
            let gens: Vec<Permutation> = gens.clone();
            let identity = Permutation::identity(n);
            let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
            seen.insert(image(&identity));
            let mut frontier = vec![identity];
            while let Some(e) = frontier.pop() {
                for g in &gens {
                    let f = e.compose(g);
                    if seen.insert(image(&f)) {
                        if seen.len() > MAX_GROUP_ORDER {
                            return Err(seen.len());
                        }
                        frontier.push(f);
                    }
                }
            }
            Ok(seen.len())
        }
    }
}

/// Builds the seeded-violation audit used by the fixture corpus: each
/// name wires a deliberately wrong contract through the same audit code
/// paths the real registry takes, proving the rule can fire.
///
/// # Errors
///
/// Enumeration failures and unknown fixture names, as plain strings.
pub fn audit_fixture(name: &str) -> Result<AnalysisReport, String> {
    let mut report = AnalysisReport::default();
    match name {
        "unclosed-group" => {
            // the line bus is asymmetric: Full(3) moves the initial token
            let p = token_bus::TokenBus::new(3);
            let pu = enumerate(&p, EnumerationLimits::depth(5)).map_err(|e| e.to_string())?;
            audit_entry(
                &ProtocolEntry {
                    name: "fixture-unclosed",
                    pu,
                    interp: Interpretation::new(),
                    group: SymmetryGroup::Full { n: 3 },
                },
                &mut report,
            );
        }
        "overcap-group" => {
            // 9! = 362880 > MAX_GROUP_ORDER; the audit must refuse without
            // expanding a single element
            let p = tracking::Toggler { max_toggles: 1 };
            let pu = enumerate(&p, EnumerationLimits::depth(4)).map_err(|e| e.to_string())?;
            audit_entry(
                &ProtocolEntry {
                    name: "fixture-overcap",
                    pu,
                    interp: Interpretation::new(),
                    group: SymmetryGroup::Full { n: 9 },
                },
                &mut report,
            );
        }
        "undeclared-invariant" => {
            // rumor-started registered Dependent although it is invariant
            // under the gossip group — the day-one bug class
            let p = gossip::PushGossip { n: 3 };
            let pu = enumerate(&p, EnumerationLimits::depth(4)).map_err(|e| e.to_string())?;
            let mut interp = Interpretation::new();
            interp.register("rumor-started", gossip::rumor_started);
            audit_entry(
                &ProtocolEntry {
                    name: "fixture-undeclared",
                    pu,
                    interp,
                    group: SymmetryGroup::fixing(3, 0),
                },
                &mut report,
            );
        }
        "wrongly-declared-invariant" => {
            // p2-informed names a relabelable process; Invariant is unsound
            let p = gossip::PushGossip { n: 3 };
            let pu = enumerate(&p, EnumerationLimits::depth(4)).map_err(|e| e.to_string())?;
            let mut interp = Interpretation::new();
            interp.register_invariant("p2-informed", |c| {
                c.iter()
                    .any(|e| e.is_on(ProcessId::new(2)) && e.is_receive())
            });
            audit_entry(
                &ProtocolEntry {
                    name: "fixture-wrongly-declared",
                    pu,
                    interp,
                    group: SymmetryGroup::fixing(3, 0),
                },
                &mut report,
            );
        }
        "unwellformed-atom" => {
            // the verdict depends on the interleaving, not the per-process
            // computations — the paper's well-formedness condition fails.
            // Enumerated universes collapse interleavings, so the fixture
            // hand-builds two orderings of the same per-process steps.
            let mut pool = hpl_model::ScenarioPool::new(2);
            let e0 = pool.internal(ProcessId::new(0));
            let e1 = pool.internal(ProcessId::new(1));
            let x = pool.compose([e0, e1]).map_err(|e| e.to_string())?;
            let y = pool.compose([e1, e0]).map_err(|e| e.to_string())?;
            let universe =
                hpl_core::Universe::from_computations(2, [x, y]).map_err(|e| e.to_string())?;
            let mut interp = Interpretation::new();
            interp.register("first-event-on-p0", |c| {
                c.iter().next().is_some_and(|e| e.is_on(ProcessId::new(0)))
            });
            wellformedness_findings(
                "protocol:fixture-unwellformed",
                &universe,
                &interp,
                &mut report,
            );
        }
        other => return Err(format!("unknown contract fixture `{other}`")),
    }
    Ok(report)
}

/// Names of every seeded contract fixture, for corpus loops.
#[must_use]
pub fn fixture_names() -> &'static [&'static str] {
    &[
        "unclosed-group",
        "overcap-group",
        "undeclared-invariant",
        "wrongly-declared-invariant",
        "unwellformed-atom",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_registry_is_clean() {
        let report = audit().expect("registry enumerates");
        assert!(
            report.clean(),
            "contract findings on HEAD: {:?}",
            report.findings
        );
        assert_eq!(report.protocols_audited, 6);
    }

    #[test]
    fn every_fixture_fires_its_rule() {
        let expected = [
            ("unclosed-group", "symmetry-not-closed"),
            ("overcap-group", "group-order-exceeded"),
            ("undeclared-invariant", "atom-invariance-missing"),
            ("wrongly-declared-invariant", "atom-invariance-unsound"),
            ("unwellformed-atom", "atom-not-wellformed"),
        ];
        assert_eq!(expected.len(), fixture_names().len());
        for (name, rule) in expected {
            let report = audit_fixture(name).expect("fixture builds");
            assert!(
                !report.of_rule(rule).is_empty(),
                "fixture {name} did not fire {rule}: {:?}",
                report.findings
            );
        }
    }

    #[test]
    fn bounded_order_matches_arithmetic() {
        assert_eq!(bounded_order(&SymmetryGroup::Trivial, 3), Ok(1));
        assert_eq!(bounded_order(&SymmetryGroup::Full { n: 4 }, 4), Ok(24));
        assert_eq!(bounded_order(&SymmetryGroup::Rotations { n: 5 }, 5), Ok(5));
        assert!(bounded_order(&SymmetryGroup::Full { n: 9 }, 9).is_err());
        // fixing(4, 0) is S₃ on the last three processes
        assert_eq!(bounded_order(&SymmetryGroup::fixing(4, 0), 4), Ok(6));
    }
}
