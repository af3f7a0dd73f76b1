//! The route table a node and the router share: which `(method, path)` is
//! which endpoint, which per-route request counter it bumps, and which
//! `Allow` set a wrong method gets. A [`Route`] borrows from the request
//! path, so routing a request allocates nothing.

/// One request's route, parsed once from its method and query-stripped
/// path. Series routes carry the raw `{id}` path segment, not yet
/// validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route<'a> {
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/stats`.
    Stats,
    /// `POST /v1/predict`.
    Predict,
    /// `POST /v1/batch`.
    Batch,
    /// `POST /v1/measurements`.
    Measurements,
    /// `GET /v1/series`.
    SeriesList,
    /// `GET /v1/series/{id}`.
    SeriesGet(&'a str),
    /// `DELETE /v1/series/{id}`.
    SeriesDelete(&'a str),
    /// `POST /v1/series/{id}/predict`.
    SeriesPredict(&'a str),
    /// `POST /v1/series/{id}/plan`.
    SeriesPlan(&'a str),
    /// A known path with the wrong method: `405` with this `Allow` set.
    MethodNotAllowed(&'static str),
    /// An unknown path (query stripped): `404`.
    NotFound(&'a str),
}

/// The per-route request counters, declared in the key order of the
/// `requests` object of `/v1/stats`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    Predict,
    Batch,
    Healthz,
    Stats,
    Measurements,
    Series,
    SeriesPredict,
    SeriesPlan,
    SeriesDelete,
}

/// The `/v1/stats` key of each [`Counter`], indexed by `counter as usize`.
pub(crate) const COUNTER_NAMES: [&str; 9] = [
    "predict",
    "batch",
    "healthz",
    "stats",
    "measurements",
    "series",
    "series_predict",
    "series_plan",
    "series_delete",
];

/// What routing decided about a request: answered into the response buffer,
/// or handed to the router's forwarder pool with the connection parked
/// until the completion arrives.
pub(crate) enum RouteOutcome {
    /// The response buffer holds the answer; finish and flush it.
    Respond,
    /// A forward job was enqueued; park the connection (the mailbox will
    /// resume it).
    Park,
}

impl<'a> Route<'a> {
    /// Route a request. Any query string is ignored: no endpoint takes
    /// parameters, but `GET /v1/healthz?probe=1` from a health checker must
    /// still be served. Known paths with the wrong method are
    /// [`Route::MethodNotAllowed`]; only unknown paths are
    /// [`Route::NotFound`].
    pub(crate) fn parse(method: &str, path: &'a str) -> Route<'a> {
        let path = path.split('?').next().unwrap_or("");
        if let Some(rest) = path.strip_prefix("/v1/series/") {
            return match (method, rest.split_once('/')) {
                ("GET", None) => Route::SeriesGet(rest),
                ("DELETE", None) => Route::SeriesDelete(rest),
                (_, None) => Route::MethodNotAllowed("GET, DELETE"),
                ("POST", Some((id, "predict"))) => Route::SeriesPredict(id),
                ("POST", Some((id, "plan"))) => Route::SeriesPlan(id),
                (_, Some((_, "predict" | "plan"))) => Route::MethodNotAllowed("POST"),
                (_, Some(_)) => Route::NotFound(path),
            };
        }
        match (method, path) {
            ("GET", "/v1/healthz") => Route::Healthz,
            ("GET", "/v1/stats") => Route::Stats,
            ("POST", "/v1/predict") => Route::Predict,
            ("POST", "/v1/batch") => Route::Batch,
            ("POST", "/v1/measurements") => Route::Measurements,
            ("GET", "/v1/series") => Route::SeriesList,
            (_, "/v1/healthz" | "/v1/stats" | "/v1/series") => Route::MethodNotAllowed("GET"),
            (_, "/v1/predict" | "/v1/batch" | "/v1/measurements") => {
                Route::MethodNotAllowed("POST")
            }
            _ => Route::NotFound(path),
        }
    }

    /// The counter this request bumps. An endpoint counts even when its id
    /// or body is then rejected; a wrong method or an unknown path counts
    /// toward no route.
    pub(crate) fn counter(self) -> Option<Counter> {
        Some(match self {
            Route::Predict => Counter::Predict,
            Route::Batch => Counter::Batch,
            Route::Healthz => Counter::Healthz,
            Route::Stats => Counter::Stats,
            Route::Measurements => Counter::Measurements,
            Route::SeriesList | Route::SeriesGet(_) => Counter::Series,
            Route::SeriesPredict(_) => Counter::SeriesPredict,
            Route::SeriesPlan(_) => Counter::SeriesPlan,
            Route::SeriesDelete(_) => Counter::SeriesDelete,
            Route::MethodNotAllowed(_) | Route::NotFound(_) => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_shape_routes_like_the_endpoint_table() {
        let cases = [
            ("GET /v1/healthz?probe=1", Route::Healthz),
            ("GET /v1/stats", Route::Stats),
            ("POST /v1/predict", Route::Predict),
            ("POST /v1/batch", Route::Batch),
            ("POST /v1/measurements", Route::Measurements),
            ("GET /v1/series", Route::SeriesList),
            ("GET /v1/series/", Route::SeriesGet("")),
            ("DELETE /v1/series/a?x", Route::SeriesDelete("a")),
            ("POST /v1/series/a/predict", Route::SeriesPredict("a")),
            ("POST /v1/series/a/plan", Route::SeriesPlan("a")),
            ("POST /v1/healthz", Route::MethodNotAllowed("GET")),
            ("DELETE /v1/series", Route::MethodNotAllowed("GET")),
            ("PUT /v1/predict", Route::MethodNotAllowed("POST")),
            ("PATCH /v1/series/a", Route::MethodNotAllowed("GET, DELETE")),
            ("GET /v1/series/a/plan", Route::MethodNotAllowed("POST")),
            ("GET /v1/nope?x=1", Route::NotFound("/v1/nope")),
            ("GET /v1/series/a/b", Route::NotFound("/v1/series/a/b")),
        ];
        for (line, route) in cases {
            let (method, path) = line.split_once(' ').unwrap();
            assert_eq!(Route::parse(method, path), route, "{line}");
            let rejected = matches!(route, Route::MethodNotAllowed(_) | Route::NotFound(_));
            assert_eq!(route.counter().is_none(), rejected, "{line}");
        }
    }

    #[test]
    fn each_endpoint_bumps_its_stats_key() {
        let cases = [
            (Route::Predict, "predict"),
            (Route::Batch, "batch"),
            (Route::Healthz, "healthz"),
            (Route::Stats, "stats"),
            (Route::Measurements, "measurements"),
            (Route::SeriesList, "series"),
            (Route::SeriesGet("a"), "series"),
            (Route::SeriesPredict("a"), "series_predict"),
            (Route::SeriesPlan("a"), "series_plan"),
            (Route::SeriesDelete("a"), "series_delete"),
        ];
        for (route, name) in cases {
            let counter = route.counter().unwrap();
            assert_eq!(COUNTER_NAMES[counter as usize], name, "{route:?}");
        }
    }
}
