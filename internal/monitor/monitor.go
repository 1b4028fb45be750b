// Package monitor supports the paper's motivating use case — real-time
// anomaly detection over streams ("for many mission-critical tasks such
// as fraud/anomaly detection ... it is important to be able to answer
// queries in real-time") — with standing threshold watches over join
// estimates: a Registry raises an alert when an estimate crosses a high
// watermark and clears it when the estimate falls back to a low one.
// The two watermarks give hysteresis so estimator noise near a single
// threshold cannot flap the alert state. The package also holds the
// ingest pipeline's counter set (IngestMetrics).
package monitor

// State is a watch's alert state.
type State int

const (
	// Normal means the estimate was at or below the low watermark, or
	// has not yet crossed the high one.
	Normal State = iota
	// Alert means the estimate crossed the high watermark and has not
	// yet fallen back to the low one.
	Alert
)

// String names the state.
func (s State) String() string {
	if s == Alert {
		return "ALERT"
	}
	return "normal"
}
