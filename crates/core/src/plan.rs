//! Per-request execution plans.
//!
//! A [`Plan`] is the compiled form of a request: for every tier in the
//! chain, the *visits* the request makes there, and within each visit the
//! CPU slices interleaved with downstream calls. For a tier-`i` visit with
//! slices `[s0, s1, ..., sk]`, the request executes `s0`, issues a call to
//! tier `i+1` (consuming that tier's next visit), continues with `s1` when
//! the reply arrives, and so on; after the final slice it replies upstream.
//!
//! The 3-tier RUBBoS shape ([`Plan::compile`]) is:
//!
//! * web tier — static requests run one slice and reply; dynamic requests
//!   run a pre slice, call the app tier, then a post slice;
//! * app tier — `queries + 1` slices with one database query between
//!   consecutive slices (the Fig. 14 structure). The *first* slice is
//!   deliberately small (5 % of the app demand): real app servers parse and
//!   dispatch the first query almost immediately, which is what lets a
//!   post-stall batch flood the database (Fig. 9);
//! * db tier — each query is an independent visit with a single slice.
//!
//! Arbitrary-depth chains are built with [`Plan::pipeline`] or
//! [`Plan::from_tier_plans`].
//!
//! # Layout
//!
//! A plan is one immutable `Arc<[u64]>`, so compiling a request costs one
//! heap allocation and sharing it (retries, hedges, tickets, memoized
//! trace plans) is a reference-count bump. With `T` tiers and `V` visits
//! over all tiers, the words are:
//!
//! | words | content |
//! |---|---|
//! | `[0]` | `T` |
//! | `[1 ..= T+1]` | index of each tier's first visit (cumulative visit counts; the last is `V`) |
//! | `[T+2 ..= T+V+2]` | buffer index of each visit's first slice (the last is the buffer length) |
//! | `[T+V+3 ..]` | every slice in µs, tier by tier, visit by visit |
//!
//! The engine asks for a visit's absolute slice range once, at visit
//! start (`Plan::slice_range`), and then reads each slice with a single
//! indexed load (`Plan::slice`).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ntier_des::rng::SimRng;
use ntier_des::time::SimDuration;
use ntier_workload::{RequestKind, RequestMix, SampledRequest};

use crate::topology::TopologyShape;

/// Fraction of the app demand spent before the first query.
pub const APP_PRE_QUERY_FRACTION: f64 = 0.05;

/// Fraction of the web demand spent before forwarding a dynamic request.
pub const WEB_PRE_FORWARD_FRACTION: f64 = 0.7;

/// The visits one request makes at one tier — the input form of
/// [`Plan::from_tier_plans`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TierPlan {
    /// `visits[v]` is the slice list of visit `v`, in arrival order.
    pub visits: Vec<Vec<SimDuration>>,
}

impl TierPlan {
    /// A tier the request never reaches.
    pub fn skipped() -> Self {
        TierPlan::default()
    }

    /// A single visit with the given slices.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is empty (a visit always has at least one slice).
    pub fn single(slices: Vec<SimDuration>) -> Self {
        assert!(!slices.is_empty(), "a visit needs at least one slice");
        TierPlan {
            visits: vec![slices],
        }
    }

    /// Total downstream calls issued from this tier.
    pub fn calls(&self) -> usize {
        self.visits.iter().map(|v| v.len() - 1).sum()
    }
}

/// The compiled execution plan of one request across the whole chain, in
/// the flat single-buffer layout described in the [module docs](self).
///
/// Cloning is a reference-count bump rather than a deep copy; equality
/// compares structure and every slice.
#[derive(Clone, PartialEq, Eq)]
pub struct Plan {
    buf: Arc<[u64]>,
}

/// Writes a flat plan into a reusable buffer. The tier and visit counts
/// are declared up front (they size the header); tiers are then opened in
/// order, each followed by its visits and their slices.
struct PlanWriter<'a> {
    buf: &'a mut Vec<u64>,
    depth: usize,
    visits: usize,
    tier: usize,
    visit: usize,
}

impl<'a> PlanWriter<'a> {
    fn new(buf: &'a mut Vec<u64>, depth: usize, visits: usize) -> Self {
        buf.clear();
        buf.resize(depth + visits + 3, 0);
        buf[0] = depth as u64;
        PlanWriter {
            buf,
            depth,
            visits,
            tier: 0,
            visit: 0,
        }
    }

    /// Opens the next tier; the visits written after it belong to it.
    fn tier(&mut self) {
        self.buf[1 + self.tier] = self.visit as u64;
        self.tier += 1;
    }

    /// Opens the next visit of the current tier.
    fn visit(&mut self) {
        self.buf[2 + self.depth + self.visit] = self.buf.len() as u64;
        self.visit += 1;
    }

    /// Appends a slice to the current visit.
    fn slice(&mut self, d: SimDuration) {
        self.buf.push(d.as_micros());
    }

    /// Closes the header and copies the buffer into its shared allocation.
    fn finish(self) -> Plan {
        debug_assert_eq!(self.tier, self.depth, "every declared tier must be opened");
        debug_assert_eq!(
            self.visit, self.visits,
            "every declared visit must be written"
        );
        self.buf[1 + self.depth] = self.visits as u64;
        self.buf[2 + self.depth + self.visits] = self.buf.len() as u64;
        Plan {
            buf: Arc::from(&self.buf[..]),
        }
    }
}

/// Writes the 3-tier RUBBoS plan of one request (see the module docs).
fn compile_rubbos(
    buf: &mut Vec<u64>,
    kind: RequestKind,
    web: SimDuration,
    app: SimDuration,
    db: &[SimDuration],
) -> Plan {
    match kind {
        RequestKind::Static => {
            let mut w = PlanWriter::new(buf, 3, 1);
            w.tier();
            w.visit();
            w.slice(web);
            w.tier();
            w.tier();
            w.finish()
        }
        RequestKind::Dynamic => {
            let queries = db.len();
            let mut w = PlanWriter::new(buf, 3, 2 + queries);
            let web_us = web.as_micros();
            let pre_web = (web_us as f64 * WEB_PRE_FORWARD_FRACTION).round() as u64;
            w.tier();
            w.visit();
            w.slice(SimDuration::from_micros(pre_web));
            w.slice(SimDuration::from_micros(web_us - pre_web));
            w.tier();
            w.visit();
            if queries == 0 {
                w.slice(app);
            } else {
                let app_us = app.as_micros();
                let pre = (app_us as f64 * APP_PRE_QUERY_FRACTION).round() as u64;
                w.slice(SimDuration::from_micros(pre));
                let rest = app_us - pre;
                let per = rest / queries as u64;
                for _ in 1..queries {
                    w.slice(SimDuration::from_micros(per));
                }
                // give the remainder to the last slice
                w.slice(SimDuration::from_micros(rest - per * (queries as u64 - 1)));
            }
            w.tier();
            for d in db {
                w.visit();
                w.slice(*d);
            }
            w.finish()
        }
    }
}

/// Compiles mix draws into plans through reusable scratch buffers: the
/// draw's database demands and the flat plan are written in place, so each
/// plan costs exactly one heap allocation (its shared buffer).
#[derive(Debug, Default)]
pub(crate) struct PlanCompiler {
    db: Vec<SimDuration>,
    buf: Vec<u64>,
}

impl PlanCompiler {
    /// Draws one request from `mix` (the same rng draws as
    /// [`RequestMix::sample`]) and compiles it into its 3-tier plan.
    pub(crate) fn draw(&mut self, mix: &RequestMix, rng: &mut SimRng) -> (&'static str, Plan) {
        let d = mix.draw_into(rng, &mut self.db);
        let plan = compile_rubbos(&mut self.buf, d.kind, d.web_demand, d.app_demand, &self.db);
        (d.class, plan)
    }
}

impl Plan {
    /// Builds a plan from per-tier visit lists, validating the chain
    /// invariant: the number of calls issued from tier `i` equals the
    /// number of visits at tier `i+1`, and tier 0 is visited exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated, `tiers` is empty, or a visit
    /// has no slices.
    pub fn from_tier_plans(tiers: Vec<TierPlan>) -> Plan {
        assert!(!tiers.is_empty(), "a plan needs at least one tier");
        assert!(
            tiers.iter().flat_map(|t| &t.visits).all(|v| !v.is_empty()),
            "a visit needs at least one slice"
        );
        assert_eq!(tiers[0].visits.len(), 1, "tier 0 is visited exactly once");
        for i in 0..tiers.len() - 1 {
            assert_eq!(
                tiers[i].calls(),
                tiers[i + 1].visits.len(),
                "calls from tier {i} must match visits at tier {}",
                i + 1
            );
        }
        assert_eq!(
            tiers.last().expect("non-empty").calls(),
            0,
            "the last tier cannot call further downstream"
        );
        let visits = tiers.iter().map(|t| t.visits.len()).sum();
        let mut buf = Vec::new();
        let mut w = PlanWriter::new(&mut buf, tiers.len(), visits);
        for t in &tiers {
            w.tier();
            for v in &t.visits {
                w.visit();
                for s in v {
                    w.slice(*s);
                }
            }
        }
        w.finish()
    }

    /// Compiles a RUBBoS-style sampled request into a 3-tier plan.
    pub fn compile(req: &SampledRequest) -> Plan {
        compile_rubbos(
            &mut Vec::new(),
            req.kind,
            req.web_demand,
            req.app_demand,
            &req.db_demands,
        )
    }

    /// One visit per tier: leaves (`is_leaf(i)`) run their demand as one
    /// slice; every other tier splits it evenly around its call point.
    fn one_visit_per_tier(demands: &[SimDuration], is_leaf: impl Fn(usize) -> bool) -> Plan {
        let n = demands.len();
        let mut buf = Vec::new();
        let mut w = PlanWriter::new(&mut buf, n, n);
        for (i, d) in demands.iter().enumerate() {
            w.tier();
            w.visit();
            if is_leaf(i) {
                w.slice(*d);
            } else {
                let half = SimDuration::from_micros(d.as_micros() / 2);
                w.slice(half);
                w.slice(*d - half);
            }
        }
        w.finish()
    }

    /// A depth-`n` pipeline: one visit per tier, one call per tier (except
    /// the last), with the tier's demand split evenly around the call.
    ///
    /// # Panics
    ///
    /// Panics if `demands` is empty.
    pub fn pipeline(demands: &[SimDuration]) -> Plan {
        assert!(!demands.is_empty(), "a pipeline needs at least one tier");
        let last = demands.len() - 1;
        Plan::one_visit_per_tier(demands, |i| i == last)
    }

    /// A plan spanning an arbitrary tree [`TopologyShape`]: every node runs
    /// one visit, splitting its demand evenly around its single downstream
    /// call point (fan-out nodes scatter to all children at that point);
    /// leaves run one uninterrupted slice. `demands[i]` is node `i`'s CPU
    /// demand in preorder id order — the tree analogue of
    /// [`Plan::pipeline`].
    ///
    /// # Panics
    ///
    /// Panics if `demands.len() != shape.len()` or the shape is empty.
    pub fn tree_pipeline(shape: &TopologyShape, demands: &[SimDuration]) -> Plan {
        assert!(!shape.is_empty(), "a plan needs at least one tier");
        assert_eq!(
            demands.len(),
            shape.len(),
            "one demand per topology node required"
        );
        Plan::one_visit_per_tier(demands, |i| shape.children[i].is_empty())
    }

    /// Validates this plan against a call-graph shape: the root is visited
    /// once; a single-child node's calls equal its child's visit count; a
    /// fan-out node makes exactly one call (one scatter) and each of its
    /// children is visited exactly once (each arm owns its subtree's
    /// visits); leaves call no further. Chains reduce to the
    /// [`Plan::from_tier_plans`] invariant.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn matches_shape(&self, shape: &TopologyShape) -> Result<(), String> {
        if self.depth() != shape.len() {
            return Err(format!(
                "plan depth {} does not match the topology's {} nodes",
                self.depth(),
                shape.len()
            ));
        }
        if self.visits_at(0) != 1 {
            return Err("the root node must be visited exactly once".into());
        }
        for i in 0..self.depth() {
            let kids = &shape.children[i];
            let calls = self.calls_from(i);
            match kids.len() {
                0 => {
                    if calls != 0 {
                        return Err(format!("leaf node {i} issues {calls} downstream calls"));
                    }
                }
                1 => {
                    let visits = self.visits_at(kids[0]);
                    if calls != visits {
                        return Err(format!(
                            "node {i} issues {calls} calls but its child {} has {visits} visits",
                            kids[0]
                        ));
                    }
                }
                _ => {
                    if calls != 1 {
                        return Err(format!(
                            "fan-out node {i} must make exactly one call (one scatter), got {calls}"
                        ));
                    }
                    for &c in kids {
                        let visits = self.visits_at(c);
                        if visits != 1 {
                            return Err(format!(
                                "scatter arm {c} must be visited exactly once, got {visits}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Shares the underlying buffer (`Arc` bump, no deep copy). Identical
    /// to [`Clone::clone`]; spelled out for hot-path call sites.
    #[inline]
    pub fn share(&self) -> Plan {
        Plan {
            buf: Arc::clone(&self.buf),
        }
    }

    /// A copy with every CPU slice multiplied by `factor` — the structure
    /// (visits, call points) is unchanged, only the demands scale. Used to
    /// apply heavy-tailed per-request demand multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Plan {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        let (header, slices) = self.buf.split_at(self.first_slice());
        let buf = header
            .iter()
            .copied()
            .chain(slices.iter().map(|&s| (s as f64 * factor).round() as u64))
            .collect();
        Plan { buf }
    }

    /// Number of tiers in the chain.
    #[inline]
    pub fn depth(&self) -> usize {
        self.buf[0] as usize
    }

    /// `true` if the request never leaves tier 0.
    pub fn is_static(&self) -> bool {
        self.depth() < 2 || self.visits_at(1) == 0
    }

    /// Number of visits to the last tier of a 3-tier plan (database
    /// queries); general chains report the last tier's visit count.
    pub fn queries(&self) -> usize {
        self.visits_at(self.depth() - 1)
    }

    /// Total CPU demand across all tiers (compilation conserves the sampled
    /// demands).
    pub fn total_demand(&self) -> SimDuration {
        self.buf[self.first_slice()..]
            .iter()
            .fold(SimDuration::ZERO, |a, s| a + SimDuration::from_micros(*s))
    }

    /// Number of visits the request makes at `tier` (0 past the chain).
    fn visits_at(&self, tier: usize) -> usize {
        if tier < self.depth() {
            self.tier_visits(tier).len()
        } else {
            0
        }
    }

    /// Slices of visit `visit` at `tier`, in execution order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range tier or visit.
    pub fn slices_at(
        &self,
        tier: usize,
        visit: usize,
    ) -> impl ExactSizeIterator<Item = SimDuration> + '_ {
        let (start, end) = self.slice_range(tier, visit);
        self.buf[start as usize..end as usize]
            .iter()
            .map(|s| SimDuration::from_micros(*s))
    }

    /// The absolute buffer range `(start, end)` of visit `visit`'s slices
    /// at `tier`: [`Plan::slice`] reads `start..end` in execution order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range tier or visit.
    #[inline]
    pub(crate) fn slice_range(&self, tier: usize, visit: usize) -> (u32, u32) {
        let vr = self.tier_visits(tier);
        assert!(visit < vr.len(), "tier {tier} has no visit {visit}");
        let span = self.visit_slices(vr.start + visit);
        (span.start as u32, span.end as u32)
    }

    /// The slice at absolute buffer index `pos` (from [`Plan::slice_range`]).
    #[inline]
    pub(crate) fn slice(&self, pos: u32) -> SimDuration {
        SimDuration::from_micros(self.buf[pos as usize])
    }

    /// Number of downstream calls made from `tier` across all its visits.
    pub fn calls_from(&self, tier: usize) -> usize {
        if tier >= self.depth() {
            return 0;
        }
        let vr = self.tier_visits(tier);
        if vr.is_empty() {
            return 0;
        }
        let first = self.visit_slices(vr.start).start;
        let end = self.visit_slices(vr.end - 1).end;
        end - first - vr.len()
    }

    /// Global visit indices of `tier`'s visits.
    #[inline]
    fn tier_visits(&self, tier: usize) -> Range<usize> {
        self.buf[1 + tier] as usize..self.buf[2 + tier] as usize
    }

    /// Buffer range of global visit `g`'s slices.
    #[inline]
    fn visit_slices(&self, g: usize) -> Range<usize> {
        let base = 2 + self.depth();
        self.buf[base + g] as usize..self.buf[base + g + 1] as usize
    }

    /// Buffer index of the first slice (the header's length).
    fn first_slice(&self) -> usize {
        let depth = self.depth();
        depth + self.buf[1 + depth] as usize + 3
    }
}

impl fmt::Debug for Plan {
    /// Prints the plan's nested form: per tier, per visit, the slices in µs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tiers: Vec<Vec<&[u64]>> = (0..self.depth())
            .map(|t| {
                self.tier_visits(t)
                    .map(|g| &self.buf[self.visit_slices(g)])
                    .collect()
            })
            .collect();
        f.debug_struct("Plan").field("tiers_us", &tiers).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn slices(p: &Plan, tier: usize, visit: usize) -> Vec<SimDuration> {
        p.slices_at(tier, visit).collect()
    }

    fn sample(seed: u64) -> SampledRequest {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(seed);
        mix.sample(&mut rng)
    }

    #[test]
    fn static_plan_has_one_web_slice() {
        let req = SampledRequest {
            class: "static",
            kind: RequestKind::Static,
            web_demand: SimDuration::from_micros(200),
            app_demand: SimDuration::ZERO,
            db_demands: vec![],
        };
        let p = Plan::compile(&req);
        assert!(p.is_static());
        assert_eq!(slices(&p, 0, 0), [SimDuration::from_micros(200)]);
        assert_eq!(p.calls_from(0), 0);
        assert_eq!(p.calls_from(1), 0);
    }

    #[test]
    fn dynamic_plan_structure_matches_fig14() {
        let req = SampledRequest {
            class: "view_story",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(100),
            app_demand: SimDuration::from_micros(1_000),
            db_demands: vec![SimDuration::from_micros(150), SimDuration::from_micros(200)],
        };
        let p = Plan::compile(&req);
        assert_eq!(p.slices_at(0, 0).len(), 2);
        assert_eq!(p.slices_at(1, 0).len(), 3); // pre, between, post
        assert_eq!(p.queries(), 2);
        assert_eq!(p.calls_from(0), 1);
        assert_eq!(p.calls_from(1), 2);
        // first app slice is the small dispatch slice
        assert_eq!(slices(&p, 1, 0)[0], SimDuration::from_micros(50));
        assert_eq!(slices(&p, 2, 1), [SimDuration::from_micros(200)]);
    }

    #[test]
    fn compilation_conserves_demand() {
        for seed in 0..50 {
            let req = sample(seed);
            let p = Plan::compile(&req);
            let expect = req.web_demand
                + req.app_demand
                + req.db_demands.iter().fold(SimDuration::ZERO, |a, b| a + *b);
            assert_eq!(p.total_demand(), expect, "seed {seed}");
        }
    }

    #[test]
    fn zero_query_dynamic_request_runs_app_once() {
        let req = SampledRequest {
            class: "app_only",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(100),
            app_demand: SimDuration::from_micros(500),
            db_demands: vec![],
        };
        let p = Plan::compile(&req);
        assert_eq!(slices(&p, 1, 0), [SimDuration::from_micros(500)]);
        assert_eq!(p.calls_from(1), 0);
    }

    #[test]
    fn scaled_multiplies_every_slice_and_keeps_structure() {
        let req = SampledRequest {
            class: "view_story",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(100),
            app_demand: SimDuration::from_micros(1_000),
            db_demands: vec![SimDuration::from_micros(150), SimDuration::from_micros(200)],
        };
        let p = Plan::compile(&req);
        let s = p.scaled(2.0);
        assert_eq!(s.depth(), p.depth());
        assert_eq!(s.queries(), p.queries());
        assert_eq!(s.calls_from(1), p.calls_from(1));
        assert_eq!(
            s.total_demand(),
            SimDuration::from_micros(2 * p.total_demand().as_micros())
        );
        assert_eq!(p.scaled(1.0), p, "identity scale is exact");
    }

    #[test]
    fn pipeline_builds_arbitrary_depths() {
        let p = Plan::pipeline(&[
            SimDuration::from_micros(100),
            SimDuration::from_micros(200),
            SimDuration::from_micros(301),
            SimDuration::from_micros(400),
        ]);
        assert_eq!(p.depth(), 4);
        for i in 0..3 {
            assert_eq!(p.calls_from(i), 1);
        }
        assert_eq!(p.calls_from(3), 0);
        assert_eq!(p.total_demand(), SimDuration::from_micros(1_001));
        // odd demand splits without losing a microsecond
        assert_eq!(
            slices(&p, 2, 0)[0] + slices(&p, 2, 0)[1],
            SimDuration::from_micros(301)
        );
    }

    #[test]
    #[should_panic(expected = "must match visits")]
    fn mismatched_chain_rejected() {
        let _ = Plan::from_tier_plans(vec![
            TierPlan::single(vec![
                SimDuration::from_micros(10),
                SimDuration::from_micros(10),
            ]), // 1 call
            TierPlan {
                visits: vec![
                    vec![SimDuration::from_micros(5)],
                    vec![SimDuration::from_micros(5)],
                ],
            }, // but 2 visits
        ]);
    }

    #[test]
    #[should_panic(expected = "cannot call further downstream")]
    fn dangling_call_rejected() {
        let _ = Plan::from_tier_plans(vec![TierPlan::single(vec![
            SimDuration::from_micros(10),
            SimDuration::from_micros(10),
        ])]);
    }

    #[test]
    fn from_tier_plans_accepts_valid_chains() {
        let p = Plan::from_tier_plans(vec![
            TierPlan::single(vec![
                SimDuration::from_micros(10),
                SimDuration::from_micros(5),
            ]),
            TierPlan::single(vec![
                SimDuration::from_micros(1),
                SimDuration::from_micros(2),
                SimDuration::from_micros(3),
            ]),
            TierPlan {
                visits: vec![
                    vec![SimDuration::from_micros(7)],
                    vec![SimDuration::from_micros(8)],
                ],
            },
        ]);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.calls_from(1), 2);
    }

    #[test]
    fn tree_pipeline_matches_its_shape() {
        // web scatters to two shards; shard 0 has a store below it.
        let shape = TopologyShape {
            children: vec![vec![1, 3], vec![2], vec![], vec![]],
            parent: vec![None, Some(0), Some(1), Some(0)],
            quorum: vec![2, 1, 0, 0],
        };
        let d = |us| SimDuration::from_micros(us);
        let p = Plan::tree_pipeline(&shape, &[d(100), d(200), d(300), d(400)]);
        assert_eq!(p.depth(), 4);
        assert_eq!(p.calls_from(0), 1, "one scatter from the fan-out node");
        assert_eq!(p.calls_from(1), 1);
        assert_eq!(p.calls_from(2), 0);
        assert_eq!(p.total_demand(), d(1_000));
        p.matches_shape(&shape)
            .expect("tree pipeline fits its shape");
        // A linear pipeline also validates against the linear shape.
        let chain = Plan::pipeline(&[d(10), d(20), d(30)]);
        chain
            .matches_shape(&TopologyShape::linear(3))
            .expect("chain fits linear shape");
    }

    #[test]
    fn matches_shape_rejects_multi_call_scatter() {
        let shape = TopologyShape {
            children: vec![vec![1, 2], vec![], vec![]],
            parent: vec![None, Some(0), Some(0)],
            quorum: vec![2, 0, 0],
        };
        let d = |us| SimDuration::from_micros(us);
        // Root with 3 slices = 2 call points: illegal for a fan-out node.
        let p = Plan::from_tier_plans(vec![
            TierPlan::single(vec![d(1), d(2), d(3)]),
            TierPlan {
                visits: vec![vec![d(4)], vec![d(5)]],
            },
            TierPlan::skipped(),
        ]);
        let err = p.matches_shape(&shape).unwrap_err();
        assert!(err.contains("exactly one call"), "{err}");
    }

    /// The nested `Vec<Vec<Vec<SimDuration>>>` form the flat layout
    /// replaced (per tier, per visit, the slices), built by the original
    /// algorithms: the reference the flat plans are checked against.
    #[derive(Debug, Clone, PartialEq)]
    struct RefPlan(Vec<Vec<Vec<SimDuration>>>);

    impl RefPlan {
        fn compile(req: &SampledRequest) -> RefPlan {
            match req.kind {
                RequestKind::Static => RefPlan(vec![vec![vec![req.web_demand]], vec![], vec![]]),
                RequestKind::Dynamic => {
                    let web_us = req.web_demand.as_micros();
                    let pre_web = (web_us as f64 * WEB_PRE_FORWARD_FRACTION).round() as u64;
                    let web = vec![
                        SimDuration::from_micros(pre_web),
                        SimDuration::from_micros(web_us - pre_web),
                    ];
                    let queries = req.db_demands.len();
                    let app_us = req.app_demand.as_micros();
                    let mut app = Vec::new();
                    if queries == 0 {
                        app.push(req.app_demand);
                    } else {
                        let pre = (app_us as f64 * APP_PRE_QUERY_FRACTION).round() as u64;
                        app.push(SimDuration::from_micros(pre));
                        let rest = app_us - pre;
                        let per = rest / queries as u64;
                        for i in 0..queries {
                            let d = if i == queries - 1 {
                                rest - per * (queries as u64 - 1)
                            } else {
                                per
                            };
                            app.push(SimDuration::from_micros(d));
                        }
                    }
                    RefPlan(vec![
                        vec![web],
                        vec![app],
                        req.db_demands.iter().map(|d| vec![*d]).collect(),
                    ])
                }
            }
        }

        fn split(d: SimDuration, leaf: bool) -> Vec<Vec<SimDuration>> {
            if leaf {
                vec![vec![d]]
            } else {
                let half = SimDuration::from_micros(d.as_micros() / 2);
                vec![vec![half, d - half]]
            }
        }

        fn pipeline(demands: &[SimDuration]) -> RefPlan {
            let n = demands.len();
            RefPlan(
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, d)| RefPlan::split(*d, i == n - 1))
                    .collect(),
            )
        }

        fn tree_pipeline(shape: &TopologyShape, demands: &[SimDuration]) -> RefPlan {
            RefPlan(
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, d)| RefPlan::split(*d, shape.children[i].is_empty()))
                    .collect(),
            )
        }

        fn scaled(&self, factor: f64) -> RefPlan {
            let scale = |s: &SimDuration| {
                SimDuration::from_micros((s.as_micros() as f64 * factor).round() as u64)
            };
            RefPlan(
                self.0
                    .iter()
                    .map(|t| t.iter().map(|v| v.iter().map(scale).collect()).collect())
                    .collect(),
            )
        }

        fn calls_from(&self, tier: usize) -> usize {
            self.0
                .get(tier)
                .map_or(0, |t| t.iter().map(|v| v.len() - 1).sum())
        }

        fn total_demand(&self) -> SimDuration {
            self.0
                .iter()
                .flatten()
                .flatten()
                .fold(SimDuration::ZERO, |a, b| a + *b)
        }

        fn matches_shape(&self, shape: &TopologyShape) -> bool {
            if self.0.len() != shape.len() || self.0[0].len() != 1 {
                return false;
            }
            (0..self.0.len()).all(|i| {
                let kids = &shape.children[i];
                let calls = self.calls_from(i);
                match kids.len() {
                    0 => calls == 0,
                    1 => calls == self.0[kids[0]].len(),
                    _ => calls == 1 && kids.iter().all(|&c| self.0[c].len() == 1),
                }
            })
        }
    }

    /// A shape whose root fans out to every other node.
    fn star(n: usize) -> TopologyShape {
        TopologyShape {
            children: (0..n)
                .map(|i| if i == 0 { (1..n).collect() } else { vec![] })
                .collect(),
            parent: (0..n).map(|i| (i > 0).then_some(0)).collect(),
            quorum: (0..n).map(|i| usize::from(i == 0 && n > 1)).collect(),
        }
    }

    /// Asserts `flat` agrees with `reference` on every observable: depth,
    /// queries, calls per tier, every visit's slices, total demand, and the
    /// `matches_shape` verdict against `extra` plus a few stock shapes.
    fn assert_equivalent(flat: &Plan, reference: &RefPlan, extra: &[TopologyShape]) {
        let depth = reference.0.len();
        assert_eq!(flat.depth(), depth);
        assert_eq!(flat.queries(), reference.0[depth - 1].len());
        for t in 0..=depth {
            assert_eq!(
                flat.calls_from(t),
                reference.calls_from(t),
                "calls from {t}"
            );
        }
        for (t, visits) in reference.0.iter().enumerate() {
            assert_eq!(flat.visits_at(t), visits.len(), "visits at {t}");
            for (v, want) in visits.iter().enumerate() {
                assert_eq!(&slices(flat, t, v), want, "tier {t} visit {v}");
            }
        }
        assert_eq!(flat.total_demand(), reference.total_demand());
        let stock = [
            TopologyShape::linear(depth),
            TopologyShape::linear(depth + 1),
            star(depth),
        ];
        for shape in stock.iter().chain(extra) {
            assert_eq!(
                flat.matches_shape(shape).is_ok(),
                reference.matches_shape(shape),
                "{shape:?}"
            );
        }
    }

    fn us(v: &[u64]) -> Vec<SimDuration> {
        v.iter().map(|d| SimDuration::from_micros(*d)).collect()
    }

    /// A random tree: node `i > 0` hangs under a random earlier node.
    fn tree_from(parents: &[usize]) -> TopologyShape {
        let n = parents.len() + 1;
        let mut children = vec![Vec::new(); n];
        let mut parent = vec![None; n];
        for (k, p) in parents.iter().enumerate() {
            let (i, p) = (k + 1, p % (k + 1));
            children[p].push(i);
            parent[i] = Some(p);
        }
        let quorum = children.iter().map(Vec::len).collect();
        TopologyShape {
            children,
            parent,
            quorum,
        }
    }

    #[test]
    fn flat_static_and_zero_query_plans_match_the_reference() {
        for (kind, dbs) in [
            (RequestKind::Static, vec![]),
            (RequestKind::Dynamic, vec![]),
        ] {
            let req = SampledRequest {
                class: "x",
                kind,
                web_demand: SimDuration::from_micros(333),
                app_demand: SimDuration::from_micros(if kind == RequestKind::Static {
                    0
                } else {
                    777
                }),
                db_demands: dbs,
            };
            assert_equivalent(&Plan::compile(&req), &RefPlan::compile(&req), &[]);
        }
    }

    /// The in-place draw consumes the rng exactly as `RequestMix::sample`
    /// and compiles to the same plans.
    #[test]
    fn in_place_draw_matches_sample_and_rng_state() {
        for mix in [RequestMix::rubbos_browse(), RequestMix::view_story()] {
            let mut by_sample = SimRng::seed_from(2024);
            let mut in_place = SimRng::seed_from(2024);
            let mut compiler = PlanCompiler::default();
            let mut db = Vec::new();
            for n in 0..10_000 {
                let req = mix.sample(&mut by_sample);
                let mut probe = in_place.clone();
                let d = mix.draw_into(&mut probe, &mut db);
                let (class, plan) = compiler.draw(&mix, &mut in_place);
                assert_eq!(d.class, req.class, "draw {n}");
                assert_eq!(class, req.class, "draw {n}");
                assert_eq!(d.kind, req.kind, "draw {n}");
                assert_eq!(d.web_demand, req.web_demand, "draw {n}");
                assert_eq!(d.app_demand, req.app_demand, "draw {n}");
                assert_eq!(db, req.db_demands, "draw {n}");
                assert_eq!(plan, Plan::compile(&req), "draw {n}");
                assert_eq!(probe.next_u64(), in_place.clone().next_u64(), "draw {n}");
            }
            assert_eq!(by_sample.next_u64(), in_place.next_u64());
        }
    }

    proptest! {
        /// Demand conservation holds for arbitrary demands/query counts.
        #[test]
        fn conservation(web in 0u64..10_000, app in 0u64..10_000, dbs in proptest::collection::vec(1u64..5_000, 0..6)) {
            let req = SampledRequest {
                class: "x",
                kind: RequestKind::Dynamic,
                web_demand: SimDuration::from_micros(web),
                app_demand: SimDuration::from_micros(app),
                db_demands: dbs.iter().map(|d| SimDuration::from_micros(*d)).collect(),
            };
            let p = Plan::compile(&req);
            let expect = web + app + dbs.iter().sum::<u64>();
            prop_assert_eq!(p.total_demand(), SimDuration::from_micros(expect));
            prop_assert_eq!(p.slices_at(1, 0).len(), dbs.len() + 1);
        }

        /// Pipelines conserve demand at any depth.
        #[test]
        fn pipeline_conservation(demands in proptest::collection::vec(1u64..10_000, 1..8)) {
            let durations: Vec<SimDuration> = demands.iter().map(|d| SimDuration::from_micros(*d)).collect();
            let p = Plan::pipeline(&durations);
            prop_assert_eq!(p.total_demand(), SimDuration::from_micros(demands.iter().sum()));
            prop_assert_eq!(p.depth(), demands.len());
        }

        /// `compile` agrees with the nested reference for q ∈ 0..8 random
        /// database demands, static and dynamic.
        #[test]
        fn compile_matches_reference(
            dynamic in any::<bool>(),
            web in 0u64..10_000,
            app in 0u64..10_000,
            dbs in proptest::collection::vec(0u64..5_000, 0..8),
        ) {
            let req = SampledRequest {
                class: "x",
                kind: if dynamic { RequestKind::Dynamic } else { RequestKind::Static },
                web_demand: SimDuration::from_micros(web),
                app_demand: SimDuration::from_micros(if dynamic { app } else { 0 }),
                db_demands: if dynamic { us(&dbs) } else { vec![] },
            };
            assert_equivalent(&Plan::compile(&req), &RefPlan::compile(&req), &[]);
        }

        /// `pipeline` agrees with the nested reference at any depth.
        #[test]
        fn pipeline_matches_reference(demands in proptest::collection::vec(0u64..10_000, 1..8)) {
            let d = us(&demands);
            assert_equivalent(&Plan::pipeline(&d), &RefPlan::pipeline(&d), &[]);
        }

        /// `tree_pipeline` agrees with the nested reference on random trees.
        #[test]
        fn tree_pipeline_matches_reference(
            parents in proptest::collection::vec(0usize..64, 0..7),
            seed in 0u64..10_000,
        ) {
            let shape = tree_from(&parents);
            let d: Vec<SimDuration> = (0..shape.len() as u64)
                .map(|i| SimDuration::from_micros((seed * 31 + i * 97) % 10_000))
                .collect();
            assert_equivalent(
                &Plan::tree_pipeline(&shape, &d),
                &RefPlan::tree_pipeline(&shape, &d),
                &[shape],
            );
        }

        /// `scaled` agrees with the nested reference for compiled plans.
        #[test]
        fn scaled_matches_reference(
            web in 0u64..10_000,
            app in 0u64..10_000,
            dbs in proptest::collection::vec(0u64..5_000, 0..8),
            factor in 0.0f64..20.0,
        ) {
            let req = SampledRequest {
                class: "x",
                kind: RequestKind::Dynamic,
                web_demand: SimDuration::from_micros(web),
                app_demand: SimDuration::from_micros(app),
                db_demands: us(&dbs),
            };
            let flat = Plan::compile(&req).scaled(factor);
            assert_equivalent(&flat, &RefPlan::compile(&req).scaled(factor), &[]);
        }
    }
}
