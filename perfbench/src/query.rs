//! The query workloads: the three catalogue snapshots registered with a
//! `QueryService` of one pool worker, asked by one closed-loop client.

use crate::catalogue::{Snap, SNAPS};
use crate::stats::digest;
use crate::trace::{Probe, Tracer};
use hpl_core::{
    enumerate_sharded, parse, ClassCache, CompSet, EnumerationLimits, Evaluator, Interpretation,
    Orbits, QuotientPolicy, SatCache, ShardConfig, Universe,
};
use hpl_protocols::token_bus::{token_atoms, BroadcastBus, TokenBus};
use hpl_runtime::{execute, PlanStats, QueryError, QueryResponse, QueryService, Session};
use std::sync::Arc;

/// One snapshot as the benchmark built and registered it.
#[derive(Debug)]
pub struct Scenario {
    pub snap: Snap,
    pub universe: Arc<Universe>,
    pub interp: Arc<Interpretation>,
    pub orbits: Option<Arc<Orbits>>,
}

fn scenario(snap: Snap, shards: usize) -> Result<Scenario, String> {
    let config = ShardConfig::with_shards(shards);
    let out = match snap {
        Snap::BusPlain => enumerate_sharded(
            &TokenBus::with_chatter(3, 2),
            EnumerationLimits::depth(9),
            &config,
        ),
        Snap::BusQuotient => enumerate_sharded(
            &TokenBus::with_chatter(3, 2),
            EnumerationLimits::depth(10),
            &config.quotient(),
        ),
        Snap::StarQuotient => enumerate_sharded(
            &BroadcastBus::with_chatter(4, 1),
            EnumerationLimits::depth(8),
            &config.quotient(),
        ),
    }
    .map_err(|e| e.to_string())?;
    let universe = out.universe.into_universe();
    if universe.len() != snap.universe_len() {
        return Err(format!(
            "{} holds {} computations, the catalogue records {}",
            snap.name(),
            universe.len(),
            snap.universe_len()
        ));
    }
    let mut interp = Interpretation::new();
    token_atoms(&mut interp, snap.processes());
    Ok(Scenario {
        snap,
        universe: Arc::new(universe),
        interp: Arc::new(interp),
        orbits: out.orbits.map(Arc::new),
    })
}

/// The running service, with one session per snapshot in [`SNAPS`]
/// order.
#[derive(Debug)]
pub struct QuerySetup {
    pub scenarios: Vec<Scenario>,
    /// Held so the pool keeps running: dropping the service stops it.
    _service: QueryService,
    pub sessions: Vec<Session>,
    /// The answers `query_warm`'s warm-up got, `[snapshot][formula]`;
    /// empty for `query_cold`.
    pub warm: Vec<Vec<Arc<CompSet>>>,
}

/// Builds the snapshots at `shards` shards, starts the service and
/// registers them.
pub fn setup(shards: usize) -> Result<QuerySetup, String> {
    let scenarios = SNAPS
        .iter()
        .map(|&s| scenario(s, shards))
        .collect::<Result<Vec<_>, _>>()?;
    let service = QueryService::start(1);
    for sc in &scenarios {
        match &sc.orbits {
            Some(o) => service.register_quotient(
                sc.snap.name(),
                Arc::clone(&sc.universe),
                Arc::clone(&sc.interp),
                Arc::clone(o),
                QuotientPolicy::Expand,
            ),
            None => service.register(
                sc.snap.name(),
                Arc::clone(&sc.universe),
                Arc::clone(&sc.interp),
            ),
        };
    }
    let sessions = scenarios
        .iter()
        .map(|sc| service.session(sc.snap.name()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(QuerySetup {
        scenarios,
        _service: service,
        sessions,
        warm: Vec::new(),
    })
}

/// What the answer check and the exact counts keep of a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Answer {
    pub digest: u64,
    pub plan: PlanStats,
}

impl Answer {
    pub fn of(resp: &QueryResponse) -> Answer {
        Answer {
            digest: digest(resp.sat.words()),
            plan: resp.plan,
        }
    }
}

/// Asks every working-set formula once, through the service and, for
/// a traced run, through the replica, so the timed ops only hit. Keeps
/// the service's answers in `setup.warm`.
pub fn warm_up(
    setup: &mut QuerySetup,
    replica: Option<&Replica>,
    formulas: &[Vec<String>],
) -> Result<(), QueryError> {
    for (k, texts) in formulas.iter().enumerate() {
        let mut answers = Vec::with_capacity(texts.len());
        for text in texts {
            answers.push(setup.sessions[k].query(text)?.sat);
            if let Some(r) = replica {
                let sc = &setup.scenarios[k];
                let f = parse(text, &sc.interp).map_err(|e| QueryError::Parse(e.to_string()))?;
                let plan = setup.sessions[k].snapshot().plan(&f);
                execute(&plan, &mut r.evaluator(sc, k))?;
            }
        }
        setup.warm.push(answers);
    }
    Ok(())
}

/// The benchmark's own `ClassCache` and `SatCache` per snapshot. The
/// traced run times `execute` on an evaluator built over them the way
/// the service builds one for each job; their contents follow the
/// service's, because both see the same formulas in the same order.
#[derive(Debug)]
pub struct Replica {
    classes: Vec<Arc<ClassCache>>,
    sats: Vec<Arc<SatCache>>,
}

impl Replica {
    pub fn new() -> Self {
        Replica {
            classes: SNAPS.iter().map(|_| ClassCache::shared()).collect(),
            sats: SNAPS.iter().map(|_| SatCache::shared()).collect(),
        }
    }

    fn evaluator<'a>(&self, sc: &'a Scenario, k: usize) -> Evaluator<'a> {
        match &sc.orbits {
            Some(o) => {
                Evaluator::with_symmetry_policy(&sc.universe, &sc.interp, o, QuotientPolicy::Expand)
            }
            None => {
                Evaluator::with_class_cache(&sc.universe, &sc.interp, Arc::clone(&self.classes[k]))
            }
        }
        .with_sat_cache(Arc::clone(&self.sats[k]))
    }

    /// `[P]`-partitions cached for the plain snapshot (quotient
    /// evaluators build theirs per evaluator).
    pub fn partitions(&self) -> usize {
        self.classes[0].len()
    }
}

/// The span each snapshot's `execute` is recorded under.
pub fn eval_span(snap: Snap) -> &'static str {
    match snap {
        Snap::BusPlain => "eval.plain",
        Snap::BusQuotient => "eval.quotient",
        Snap::StarQuotient => "eval.expand",
    }
}

/// One traced op and how its time splits.
#[derive(Clone, Copy, Debug)]
pub struct TracedAnswer {
    pub answer: Answer,
    /// `parse` plus `Session::query_formula`: the calls `Session::query`
    /// makes, comparable with an untraced op.
    pub latency_ns: u64,
    /// `Session::query_formula` minus the replica's plan and execute:
    /// admission, the job channel, the worker wake-up and the reply.
    pub handoff_ns: i64,
}

/// One traced op: `parse`, `Snapshot::plan`, `execute` on the replica,
/// then `Session::query_formula`, each in its own span.
pub fn query_traced(
    setup: &QuerySetup,
    replica: &Replica,
    k: usize,
    text: &str,
    tr: &mut Tracer,
    op: usize,
) -> Result<TracedAnswer, QueryError> {
    let sc = &setup.scenarios[k];
    let session = &setup.sessions[k];
    let root = tr.enter("op", op);
    let mut run = || {
        let s = tr.enter("parser.parse", op);
        let f = parse(text, &sc.interp);
        tr.exit(s);
        let parse_ns = tr.dur_ns(s);
        let f = f.map_err(|e| QueryError::Parse(e.to_string()))?;

        let s = tr.enter("planner.plan", op);
        let plan = session.snapshot().plan(&f);
        tr.exit(s);
        let plan_ns = tr.dur_ns(s);

        let s = tr.enter(eval_span(sc.snap), op);
        let replica_sat = execute(&plan, &mut replica.evaluator(sc, k));
        tr.exit(s);
        let exec_ns = tr.dur_ns(s);

        let s = tr.enter("session.query_formula", op);
        let resp = session.query_formula(&f);
        tr.exit(s);
        let served_ns = tr.dur_ns(s);

        let resp = resp?;
        let answer = Answer {
            digest: digest(resp.sat.words()),
            plan: resp.plan,
        };
        if digest(replica_sat?.words()) != answer.digest {
            return Err(QueryError::Internal(format!(
                "the replica evaluator disagrees with the service on {text}"
            )));
        }
        Ok(TracedAnswer {
            answer,
            latency_ns: parse_ns + served_ns,
            handoff_ns: served_ns as i64 - plan_ns as i64 - exec_ns as i64,
        })
    };
    let out = run();
    tr.exit(root);
    out
}

/// The answer check's reference: a fresh, sequential `Evaluator` per
/// formula with no `SatCache`. Plain-snapshot references share one
/// benchmark-owned `ClassCache`, because partitions depend on the
/// universe alone; quotient evaluators build their own.
#[derive(Debug)]
pub struct Reference {
    classes: Arc<ClassCache>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            classes: ClassCache::shared(),
        }
    }

    pub fn digest(&self, sc: &Scenario, text: &str) -> Result<u64, String> {
        let f = parse(text, &sc.interp).map_err(|e| e.to_string())?;
        let mut eval = match &sc.orbits {
            Some(o) => {
                Evaluator::with_symmetry_policy(&sc.universe, &sc.interp, o, QuotientPolicy::Expand)
            }
            None => {
                Evaluator::with_class_cache(&sc.universe, &sc.interp, Arc::clone(&self.classes))
            }
        };
        let sat = eval.try_sat_set(&f).map_err(|e| e.to_string())?;
        Ok(digest(sat.words()))
    }
}

/// Sat-cache counters summed over the service's snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheTotals {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: usize,
    pub coalesced: u64,
}

pub fn cache_totals(setup: &QuerySetup) -> CacheTotals {
    let mut t = CacheTotals::default();
    for session in &setup.sessions {
        let snapshot = session.snapshot();
        let s = snapshot.sat_cache_stats();
        t.hits += s.hits;
        t.misses += s.misses;
        t.evictions += s.evictions;
        t.resident_bytes += s.resident_bytes;
        t.coalesced += snapshot.coalesced();
    }
    t
}
