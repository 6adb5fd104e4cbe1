use crate::overload::ShedReason;
use ie_tensor::Tensor;

/// One inference request in the open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned identifier echoed back in the [`Response`].
    pub id: u64,
    /// Arrival time in seconds on the stream's virtual clock (replay mode)
    /// — must be non-decreasing across the stream. Live mode stamps arrivals
    /// itself and ignores this field.
    pub arrival_s: f64,
    /// The request's latency budget in seconds; admission control picks the
    /// deepest exit whose predicted cost fits, or sheds the request.
    pub budget_s: f64,
    /// The input image, shaped like the network's input.
    pub input: Tensor,
}

/// What the server decided and computed for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The request was admitted and ran to `exit`.
    Served {
        /// The early exit the admission policy selected.
        exit: usize,
        /// Predicted class at that exit.
        prediction: usize,
        /// Softmax confidence of the prediction at that exit.
        confidence: f32,
    },
    /// Admission control rejected the request (budget below the cheapest
    /// exit, or the policy skipped it).
    Rejected,
    /// The overload layer shed the request after admission — the bounded
    /// queue was full, the deadline became unmeetable under load, or the
    /// request's batch lost its worker again on its one retry.
    Shed {
        /// Why the overload layer gave up on the request.
        reason: ShedReason,
    },
}

/// The server's answer for one request. Responses carry only content that is
/// deterministic for a fixed request stream — timing lives in the
/// [`crate::ServeReport`], so responses stay byte-identical across worker
/// counts, batch compositions and repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// Decision and (when served) the inference result.
    pub verdict: Verdict,
}
