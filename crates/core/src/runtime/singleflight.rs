//! Single-flight coalescing of origin fetches.
//!
//! When many clients ask the same (or a subsumed) question at once, a
//! cold cache would send every one of them across the WAN. The flight
//! table makes the first such request the **leader**; everyone else
//! becomes a **follower** of its flight:
//!
//! * an *exact* follower (same canonical SQL) waits until the flight
//!   lands and adopts the leader's response;
//! * a *contained* follower (region inside the in-flight region, same
//!   residual group) waits until the flight lands, then retries the
//!   cache — the leader inserts its result **before** resolving the
//!   flight, so the retry finds a containing entry and takes the normal
//!   local-evaluation path.
//!
//! Either way at most one WAN fetch is issued. A leader whose fetch
//! fails publishes the **error** to its followers ([`FlightLease::fail`])
//! — exactly one origin attempt per failed flight, no retry storm. A
//! leader that panics publishes a synthetic `Unavailable` the same way.
//! Followers receiving an error must not lead a fresh flight for the
//! same query; they re-check the cache and try degraded serving, then
//! surface the error.
//!
//! ## Wakeup lists, not condvars
//!
//! A pending flight holds an explicit **wakeup list**: each follower
//! registers either its thread handle (the blocking path — it parks and
//! the leader unparks it) or an arbitrary callback
//! ([`FlightTicket::on_landing`] — the nonblocking path used by
//! event-loop edges that must not park a reactor thread). On landing the
//! leader swaps the state to `Done`, then drains the list *outside* the
//! state lock: threads are unparked, callbacks are invoked with a clone
//! of the landed result. A callback registered after landing fires
//! immediately on the registering thread. This keeps followers cheap —
//! no condvar broadcast storms — and lets a follower be something other
//! than a parked thread.
//!
//! Lock discipline: the flight-table lock is never held while a flight's
//! state lock is held, and neither is ever held across a wait, a
//! callback invocation, or an origin fetch.

use crate::origin::OriginError;
use crate::runtime::ProxyResponse;
use crate::ProxyError;
use fp_geometry::{Region, Relation};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// How a follower's query relates to the flight it joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coalesce {
    /// Same canonical SQL: the leader's response answers this request.
    Exact,
    /// Region contained in the in-flight region: once the leader has
    /// cached its result, a cache retry answers this request locally.
    Contained,
}

/// The landed result of a flight, as delivered to followers.
pub type FlightResult = Result<ProxyResponse, ProxyError>;

/// A follower's registration on a pending flight's wakeup list.
enum Waiter {
    /// A parked thread; the leader unparks it on landing.
    Thread(std::thread::Thread),
    /// A callback; the leader invokes it with the landed result.
    Callback(Box<dyn FnOnce(FlightResult) + Send>),
}

enum FlightState {
    /// In flight; the wakeup list of registered followers.
    Pending(Vec<Waiter>),
    Done(FlightResult),
}

struct Flight {
    sql: String,
    residual_key: String,
    region: Region,
    state: Mutex<FlightState>,
}

impl Flight {
    fn state(&self) -> MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Table {
    flights: HashMap<String, Arc<Flight>>,
    in_flight_peak: usize,
}

/// The flight table: at most one origin-bound flight per canonical SQL.
pub struct SingleFlight {
    table: Mutex<Table>,
}

impl Default for SingleFlight {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight {
            table: Mutex::new(Table {
                flights: HashMap::new(),
                in_flight_peak: 0,
            }),
        }
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Joins the flight covering this query, or registers a new one.
    ///
    /// `allow_contained` joins flights whose region contains `region`
    /// within the same residual group; pass `false` for schemes that
    /// cannot answer a query from a containing entry (passive caching).
    pub fn join(
        &self,
        sql: &str,
        residual_key: &str,
        region: &Region,
        allow_contained: bool,
    ) -> Joined<'_> {
        let mut table = self.table();
        if let Some(flight) = table.flights.get(sql) {
            return Joined::Follow(Coalesce::Exact, FlightTicket(Arc::clone(flight)));
        }
        if allow_contained {
            for flight in table.flights.values() {
                if flight.residual_key == residual_key
                    && matches!(
                        region.relate(&flight.region),
                        Relation::Equal | Relation::Inside
                    )
                {
                    return Joined::Follow(Coalesce::Contained, FlightTicket(Arc::clone(flight)));
                }
            }
        }
        let flight = Arc::new(Flight {
            sql: sql.to_string(),
            residual_key: residual_key.to_string(),
            region: region.clone(),
            state: Mutex::new(FlightState::Pending(Vec::new())),
        });
        table.flights.insert(sql.to_string(), Arc::clone(&flight));
        table.in_flight_peak = table.in_flight_peak.max(table.flights.len());
        Joined::Lead(FlightLease {
            table: self,
            flight,
            resolved: false,
        })
    }

    /// Peak number of simultaneously in-flight fetches so far.
    pub fn in_flight_peak(&self) -> usize {
        self.table().in_flight_peak
    }

    /// Flights currently pending (for tests and diagnostics).
    pub fn in_flight(&self) -> usize {
        self.table().flights.len()
    }
}

/// The result of [`SingleFlight::join`].
pub enum Joined<'a> {
    /// This request leads: fetch from the origin, then
    /// [`FlightLease::resolve`].
    Lead(FlightLease<'a>),
    /// This request follows an in-flight fetch: [`FlightTicket::wait`]
    /// or [`FlightTicket::on_landing`].
    Follow(Coalesce, FlightTicket),
}

/// The leader's obligation to land its flight.
///
/// Dropping the lease without [`FlightLease::resolve`] or
/// [`FlightLease::fail`] (a panic on the origin path) publishes a
/// synthetic `Unavailable` error so followers wake instead of hanging.
pub struct FlightLease<'a> {
    table: &'a SingleFlight,
    flight: Arc<Flight>,
    resolved: bool,
}

impl FlightLease<'_> {
    /// Lands the flight with the leader's response, waking every
    /// follower. Call only after the result has been inserted into the
    /// cache, so contained followers find it on retry.
    pub fn resolve(mut self, response: ProxyResponse) {
        self.finish(Ok(response));
    }

    /// Lands the flight with the leader's failure, publishing the error
    /// to every follower exactly once.
    pub fn fail(mut self, error: ProxyError) {
        self.finish(Err(error));
    }

    fn finish(&mut self, response: FlightResult) {
        self.resolved = true;
        // Deregister first (new arrivals start a fresh flight), then
        // publish the state; the two locks are never held together.
        self.table.table().flights.remove(&self.flight.sql);
        let previous = {
            let mut state = self.flight.state();
            std::mem::replace(&mut *state, FlightState::Done(response.clone()))
        };
        // Drain the wakeup list outside the state lock: callbacks may be
        // arbitrarily slow (an edge completion handler) and must not
        // serialize against followers still registering.
        if let FlightState::Pending(waiters) = previous {
            for waiter in waiters {
                match waiter {
                    Waiter::Thread(thread) => thread.unpark(),
                    Waiter::Callback(callback) => callback(response.clone()),
                }
            }
        }
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.finish(Err(ProxyError::Origin(OriginError::Unavailable(
                "flight leader aborted".into(),
            ))));
        }
    }
}

/// A follower's claim on an in-flight fetch.
pub struct FlightTicket(Arc<Flight>);

impl FlightTicket {
    /// Blocks until the flight lands. `Err` carries the leader's
    /// failure; the caller must not retry the origin (that would undo
    /// the coalescing) — it should attempt degraded serving from the
    /// cache and otherwise surface the error.
    pub fn wait(self) -> FlightResult {
        loop {
            {
                let mut state = self.0.state();
                match &mut *state {
                    FlightState::Done(response) => return response.clone(),
                    FlightState::Pending(waiters) => {
                        // Re-register on every iteration: a spurious
                        // park return may leave a stale entry behind,
                        // and a duplicate unpark is harmless.
                        waiters.push(Waiter::Thread(std::thread::current()));
                    }
                }
            }
            // The unpark token is sticky: if the leader drains the list
            // between the unlock above and this park, park returns
            // immediately instead of losing the wakeup.
            std::thread::park();
        }
    }

    /// Registers `callback` to run when the flight lands, without
    /// blocking. If the flight has already landed, the callback runs
    /// immediately on the current thread; otherwise it runs on the
    /// leader's thread as it drains the wakeup list.
    ///
    /// This is the nonblocking follower path for event-loop edges: a
    /// reactor must never park, so instead of [`FlightTicket::wait`] it
    /// hands the flight a completion that re-enqueues the suspended
    /// request.
    pub fn on_landing<F>(self, callback: F)
    where
        F: FnOnce(FlightResult) + Send + 'static,
    {
        // Option dance: the branches are exclusive, but the borrow
        // checker sees `callback` potentially moved twice.
        let mut callback = Some(callback);
        let landed = {
            let mut state = self.0.state();
            match &mut *state {
                FlightState::Done(response) => Some(response.clone()),
                FlightState::Pending(waiters) => {
                    let cb = callback.take().expect("callback registered once");
                    waiters.push(Waiter::Callback(Box::new(cb)));
                    None
                }
            }
        };
        if let Some(response) = landed {
            (callback.take().expect("callback not registered"))(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Outcome, QueryMetrics};
    use fp_geometry::HyperRect;
    use fp_skyserver::ResultSet;

    fn region(lo: f64, hi: f64) -> Region {
        Region::Rect(HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap())
    }

    fn response(rows: usize) -> ProxyResponse {
        ProxyResponse {
            result: std::sync::Arc::new(ResultSet {
                columns: vec!["objID".into()],
                rows: (0..rows)
                    .map(|i| vec![fp_sqlmini::Value::Int(i as i64)])
                    .collect(),
            }),
            columnar: None,
            metrics: QueryMetrics {
                outcome: Outcome::Forwarded,
                response_ms: 1.0,
                sim_ms: 1.0,
                rows_total: rows,
                ..QueryMetrics::default()
            },
        }
    }

    #[test]
    fn exact_follower_adopts_leader_response() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 10.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let ticket = match sf.join("SQL", "k", &region(0.0, 10.0), true) {
            Joined::Follow(Coalesce::Exact, ticket) => ticket,
            _ => panic!("identical SQL must follow exactly"),
        };
        assert_eq!(sf.in_flight(), 1);
        lease.resolve(response(3));
        let adopted = ticket.wait().expect("resolved flight succeeds");
        assert_eq!(adopted.result.len(), 3);
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.in_flight_peak(), 1);
    }

    #[test]
    fn contained_region_follows_only_when_allowed() {
        let sf = SingleFlight::new();
        let _lease = match sf.join("BIG", "k", &region(0.0, 10.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        // Subsumed region, same group: follows the big flight.
        match sf.join("SMALL", "k", &region(2.0, 4.0), true) {
            Joined::Follow(Coalesce::Contained, _) => {}
            _ => panic!("contained region must follow"),
        }
        // Same geometry but containment joining disabled: leads its own.
        match sf.join("SMALL", "k", &region(2.0, 4.0), false) {
            Joined::Lead(_) => {}
            Joined::Follow(..) => panic!("allow_contained=false must not coalesce"),
        }
        // Different residual group never coalesces by containment.
        match sf.join("OTHER", "other-group", &region(2.0, 4.0), true) {
            Joined::Lead(_) => {}
            Joined::Follow(..) => panic!("groups must stay isolated"),
        };
    }

    #[test]
    fn failed_leader_publishes_its_error_to_followers() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let ticket = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, ticket) => ticket,
            Joined::Lead(_) => panic!("second join must follow"),
        };
        lease.fail(ProxyError::Origin(OriginError::Rejected("nope".into())));
        match ticket.wait() {
            Err(ProxyError::Origin(OriginError::Rejected(m))) => assert_eq!(m, "nope"),
            other => panic!("follower must see the leader's error, got {other:?}"),
        }
        // The failed flight no longer blocks new leaders.
        assert!(matches!(
            sf.join("SQL", "k", &region(0.0, 1.0), true),
            Joined::Lead(_)
        ));
    }

    #[test]
    fn dropped_lease_wakes_followers_with_unavailable() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let ticket = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, ticket) => ticket,
            Joined::Lead(_) => panic!("second join must follow"),
        };
        drop(lease);
        assert!(
            matches!(
                ticket.wait(),
                Err(ProxyError::Origin(OriginError::Unavailable(_)))
            ),
            "an abandoned flight reads as origin-unavailable"
        );
    }

    #[test]
    fn peak_tracks_simultaneous_flights() {
        let sf = SingleFlight::new();
        let a = match sf.join("A", "k", &region(0.0, 1.0), false) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => unreachable!(),
        };
        let b = match sf.join("B", "k", &region(5.0, 6.0), false) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => unreachable!(),
        };
        a.resolve(response(1));
        b.resolve(response(1));
        assert_eq!(sf.in_flight_peak(), 2);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn callback_follower_fires_without_a_parked_thread() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let ticket = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, ticket) => ticket,
            Joined::Lead(_) => panic!("second join must follow"),
        };
        let landed = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&landed);
        ticket.on_landing(move |result| {
            *sink.lock().unwrap() = Some(result.map(|r| r.result.len()).map_err(|e| e.to_string()));
        });
        assert!(landed.lock().unwrap().is_none(), "must not fire early");
        lease.resolve(response(7));
        assert_eq!(
            *landed.lock().unwrap(),
            Some(Ok(7)),
            "leader must drain the callback on landing"
        );
    }

    #[test]
    fn callback_after_landing_fires_immediately() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let ticket = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, ticket) => ticket,
            Joined::Lead(_) => panic!("second join must follow"),
        };
        lease.resolve(response(2));
        let landed = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&landed);
        ticket.on_landing(move |result| {
            *sink.lock().unwrap() = Some(result.map(|r| r.result.len()).map_err(|e| e.to_string()));
        });
        assert_eq!(*landed.lock().unwrap(), Some(Ok(2)));
    }

    #[test]
    fn parked_and_callback_followers_both_land() {
        let sf = SingleFlight::new();
        let lease = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Lead(lease) => lease,
            Joined::Follow(..) => panic!("first join must lead"),
        };
        let blocking = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, t) => t,
            Joined::Lead(_) => panic!("must follow"),
        };
        let async_side = match sf.join("SQL", "k", &region(0.0, 1.0), true) {
            Joined::Follow(_, t) => t,
            Joined::Lead(_) => panic!("must follow"),
        };
        let waiter = std::thread::spawn(move || blocking.wait());
        let landed = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&landed);
        async_side.on_landing(move |result| {
            *sink.lock().unwrap() = Some(result.map(|r| r.result.len()).map_err(|e| e.to_string()));
        });
        // Give the blocking follower a moment to park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        lease.resolve(response(4));
        let adopted = waiter.join().expect("waiter thread").expect("resolved");
        assert_eq!(adopted.result.len(), 4);
        assert_eq!(*landed.lock().unwrap(), Some(Ok(4)));
    }
}
