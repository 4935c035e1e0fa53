//! Request mixes: classes of requests with per-tier service demands.
//!
//! RUBBoS is a bulletin-board benchmark; its browse mix is dominated by
//! short dynamic interactions (ViewStory, StoriesOfTheDay, ...) that cost the
//! app tier a fraction of a millisecond and issue one or more database
//! queries, plus purely static content served by the web tier alone (the
//! static class matters: Fig. 4 shows that during upstream CTQO even static
//! requests — which never touch Tomcat — queue and drop at Apache).
//!
//! Demands are calibrated so the app tier is the natural bottleneck at
//! ≈0.75 ms per request on one core, reproducing Fig. 1's utilization
//! ladder: 43 % at 572 req/s, 75 % at 990, 85 % at 1103.

use ntier_des::dist::{Distribution, LogNormal, Point};
use ntier_des::rng::SimRng;
use ntier_des::time::SimDuration;

/// Whether a request terminates at the web tier or goes down the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Served entirely by the web tier (images, CSS, ...).
    Static,
    /// Passes through the app tier and issues database queries.
    Dynamic,
}

/// One request class in a mix.
#[derive(Debug)]
pub struct RequestProfile {
    name: &'static str,
    weight: f64,
    kind: RequestKind,
    web: Box<dyn Distribution>,
    app: Box<dyn Distribution>,
    db: Box<dyn Distribution>,
    db_queries: u32,
}

impl RequestProfile {
    /// Creates a class. For [`RequestKind::Static`] the app/db demands are
    /// ignored and `db_queries` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive/finite, or a static class declares
    /// database queries.
    pub fn new(
        name: &'static str,
        weight: f64,
        kind: RequestKind,
        web: Box<dyn Distribution>,
        app: Box<dyn Distribution>,
        db: Box<dyn Distribution>,
        db_queries: u32,
    ) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        if kind == RequestKind::Static {
            assert_eq!(db_queries, 0, "static requests issue no database queries");
        }
        RequestProfile {
            name,
            weight,
            kind,
            web,
            app,
            db,
            db_queries,
        }
    }

    /// Class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Relative weight in the mix.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Static or dynamic.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Queries issued per request.
    pub fn db_queries(&self) -> u32 {
        self.db_queries
    }
}

/// A concrete sampled request: class plus drawn demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledRequest {
    /// Class name (for per-class reporting).
    pub class: &'static str,
    /// Static or dynamic.
    pub kind: RequestKind,
    /// CPU demand at the web tier.
    pub web_demand: SimDuration,
    /// CPU demand at the app tier (zero for static requests).
    pub app_demand: SimDuration,
    /// CPU demand of each database query, in issue order.
    pub db_demands: Vec<SimDuration>,
}

/// The scalar half of one mix draw: class, kind and the web/app demands.
/// The database demands go to a caller-owned buffer (see
/// [`RequestMix::draw_into`]), so a draw allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDraw {
    /// Class name (for per-class reporting).
    pub class: &'static str,
    /// Static or dynamic.
    pub kind: RequestKind,
    /// CPU demand at the web tier.
    pub web_demand: SimDuration,
    /// CPU demand at the app tier (zero for static requests).
    pub app_demand: SimDuration,
}

/// A weighted set of request classes.
#[derive(Debug)]
pub struct RequestMix {
    profiles: Vec<RequestProfile>,
    total_weight: f64,
}

impl RequestMix {
    /// Builds a mix from profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<RequestProfile>) -> Self {
        assert!(!profiles.is_empty(), "a mix needs at least one class");
        let total_weight = profiles.iter().map(|p| p.weight).sum();
        RequestMix {
            profiles,
            total_weight,
        }
    }

    /// The RUBBoS-like browse mix used throughout the reproduction
    /// (app-tier mean ≈ 0.75 ms/request; see module docs).
    pub fn rubbos_browse() -> Self {
        let d = |mean_ms: f64| -> Box<dyn Distribution> {
            Box::new(LogNormal::with_mean(mean_ms / 1e3, 0.3))
        };
        RequestMix::new(vec![
            RequestProfile::new(
                "static",
                0.15,
                RequestKind::Static,
                d(0.20),
                Box::new(Point::new(0.0)),
                Box::new(Point::new(0.0)),
                0,
            ),
            RequestProfile::new(
                "view_story",
                0.35,
                RequestKind::Dynamic,
                d(0.05),
                d(1.00),
                d(0.20),
                2,
            ),
            RequestProfile::new(
                "stories_of_the_day",
                0.25,
                RequestKind::Dynamic,
                d(0.05),
                d(0.80),
                d(0.15),
                2,
            ),
            RequestProfile::new(
                "view_comments",
                0.15,
                RequestKind::Dynamic,
                d(0.05),
                d(0.90),
                d(0.15),
                3,
            ),
            RequestProfile::new(
                "browse_categories",
                0.10,
                RequestKind::Dynamic,
                d(0.05),
                d(0.60),
                d(0.10),
                1,
            ),
        ])
    }

    /// A single-class deterministic mix — the controlled workloads of §V
    /// (e.g. the ViewStory burst batches).
    pub fn single(
        name: &'static str,
        web_ms: f64,
        app_ms: f64,
        db_ms: f64,
        db_queries: u32,
    ) -> Self {
        RequestMix::new(vec![RequestProfile::new(
            name,
            1.0,
            RequestKind::Dynamic,
            Box::new(Point::new(web_ms / 1e3)),
            Box::new(Point::new(app_ms / 1e3)),
            Box::new(Point::new(db_ms / 1e3)),
            db_queries,
        )])
    }

    /// The controlled ViewStory class from §V-B.
    pub fn view_story() -> Self {
        RequestMix::single("view_story", 0.05, 0.75, 0.15, 2)
    }

    /// Draws one request.
    pub fn sample(&self, rng: &mut SimRng) -> SampledRequest {
        let mut db_demands = Vec::new();
        let d = self.draw_into(rng, &mut db_demands);
        SampledRequest {
            class: d.class,
            kind: d.kind,
            web_demand: d.web_demand,
            app_demand: d.app_demand,
            db_demands,
        }
    }

    /// Draws one request, writing its database demands into `db` (cleared
    /// first) in issue order. This is the mix's only sampler: the rng is
    /// consumed as the class pick, the web demand, then — for dynamic
    /// classes — the app demand and one draw per query.
    pub fn draw_into(&self, rng: &mut SimRng, db: &mut Vec<SimDuration>) -> RequestDraw {
        let mut pick = rng.next_f64() * self.total_weight;
        let mut chosen = self.profiles.last().expect("non-empty");
        for p in &self.profiles {
            if pick < p.weight {
                chosen = p;
                break;
            }
            pick -= p.weight;
        }
        db.clear();
        let web_demand = chosen.web.sample(rng);
        let app_demand = match chosen.kind {
            RequestKind::Static => SimDuration::ZERO,
            RequestKind::Dynamic => {
                let app = chosen.app.sample(rng);
                db.extend((0..chosen.db_queries).map(|_| chosen.db.sample(rng)));
                app
            }
        };
        RequestDraw {
            class: chosen.name,
            kind: chosen.kind,
            web_demand,
            app_demand,
        }
    }

    /// The class profiles.
    pub fn profiles(&self) -> &[RequestProfile] {
        &self.profiles
    }

    /// Mean app-tier demand per request (seconds), weight-averaged.
    pub fn mean_app_demand_secs(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| {
                let demand = match p.kind {
                    RequestKind::Static => 0.0,
                    RequestKind::Dynamic => p.app.mean_f64(),
                };
                p.weight * demand
            })
            .sum::<f64>()
            / self.total_weight
    }

    /// Mean total DB demand per request (seconds), weight-averaged.
    pub fn mean_db_demand_secs(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| {
                let demand = match p.kind {
                    RequestKind::Static => 0.0,
                    RequestKind::Dynamic => p.db.mean_f64() * f64::from(p.db_queries),
                };
                p.weight * demand
            })
            .sum::<f64>()
            / self.total_weight
    }

    /// Mean web-tier demand per request (seconds), weight-averaged.
    pub fn mean_web_demand_secs(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.weight * p.web.mean_f64())
            .sum::<f64>()
            / self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rubbos_mix_app_demand_matches_fig1_calibration() {
        let mix = RequestMix::rubbos_browse();
        let mean_ms = mix.mean_app_demand_secs() * 1e3;
        // 0.75 ms/request at the app tier: 43% at 572 req/s (Fig. 1(a)).
        assert!(
            (0.65..0.85).contains(&mean_ms),
            "mean app demand {mean_ms} ms"
        );
        let util_at_572 = 572.0 * mix.mean_app_demand_secs();
        assert!((0.38..0.50).contains(&util_at_572), "util {util_at_572}");
        let util_at_1103 = 1_103.0 * mix.mean_app_demand_secs();
        assert!((0.75..0.95).contains(&util_at_1103), "util {util_at_1103}");
    }

    #[test]
    fn sampling_respects_class_structure() {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(21);
        let mut saw_static = false;
        let mut saw_dynamic = false;
        for _ in 0..500 {
            let r = mix.sample(&mut rng);
            match r.kind {
                RequestKind::Static => {
                    saw_static = true;
                    assert!(r.db_demands.is_empty());
                    assert_eq!(r.app_demand, SimDuration::ZERO);
                }
                RequestKind::Dynamic => {
                    saw_dynamic = true;
                    assert!(!r.db_demands.is_empty());
                    assert!(r.app_demand > SimDuration::ZERO);
                }
            }
        }
        assert!(saw_static && saw_dynamic);
    }

    #[test]
    fn class_frequencies_match_weights() {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(22);
        let n = 20_000;
        let mut statics = 0;
        for _ in 0..n {
            if mix.sample(&mut rng).kind == RequestKind::Static {
                statics += 1;
            }
        }
        let frac = statics as f64 / n as f64;
        assert!((frac - 0.15).abs() < 0.02, "static fraction {frac}");
    }

    #[test]
    fn single_mix_is_deterministic() {
        let mix = RequestMix::view_story();
        let mut rng = SimRng::seed_from(23);
        let r = mix.sample(&mut rng);
        assert_eq!(r.class, "view_story");
        assert_eq!(r.app_demand, SimDuration::from_micros(750));
        assert_eq!(r.db_demands.len(), 2);
        assert_eq!(r.db_demands[0], SimDuration::from_micros(150));
    }

    /// The draw order the mix has always used — class pick, web, then app
    /// and one draw per query for dynamic classes — as a reference for
    /// [`RequestMix::draw_into`].
    fn reference_sample(mix: &RequestMix, rng: &mut SimRng) -> SampledRequest {
        let mut pick = rng.next_f64() * mix.total_weight;
        let mut chosen = mix.profiles.last().expect("non-empty");
        for p in &mix.profiles {
            if pick < p.weight {
                chosen = p;
                break;
            }
            pick -= p.weight;
        }
        let web_demand = chosen.web.sample(rng);
        let (app_demand, db_demands) = match chosen.kind {
            RequestKind::Static => (SimDuration::ZERO, Vec::new()),
            RequestKind::Dynamic => (
                chosen.app.sample(rng),
                (0..chosen.db_queries)
                    .map(|_| chosen.db.sample(rng))
                    .collect(),
            ),
        };
        SampledRequest {
            class: chosen.name,
            kind: chosen.kind,
            web_demand,
            app_demand,
            db_demands,
        }
    }

    #[test]
    fn draw_into_keeps_the_reference_draw_order() {
        for mix in [RequestMix::rubbos_browse(), RequestMix::view_story()] {
            let mut a = SimRng::seed_from(31);
            let mut b = SimRng::seed_from(31);
            let mut db = vec![SimDuration::from_secs(9)]; // stale scratch is cleared
            for _ in 0..10_000 {
                let want = reference_sample(&mix, &mut a);
                let d = mix.draw_into(&mut b, &mut db);
                assert_eq!(
                    (d.class, d.kind, d.web_demand, d.app_demand),
                    (want.class, want.kind, want.web_demand, want.app_demand)
                );
                assert_eq!(db, want.db_demands);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "rng states diverged");
        }
    }

    #[test]
    fn db_demand_means() {
        let mix = RequestMix::single("x", 0.1, 0.5, 0.2, 3);
        assert!((mix.mean_db_demand_secs() - 0.0006).abs() < 1e-12);
        assert!((mix.mean_web_demand_secs() - 0.0001).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no database queries")]
    fn static_class_with_queries_rejected() {
        let _ = RequestProfile::new(
            "bad",
            1.0,
            RequestKind::Static,
            Box::new(Point::new(0.001)),
            Box::new(Point::new(0.0)),
            Box::new(Point::new(0.0)),
            2,
        );
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = RequestMix::new(vec![]);
    }
}
