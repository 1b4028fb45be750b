package monitor_test

import (
	"fmt"

	"skimsketch/internal/monitor"
)

// Watermark alerting on a join estimate: the alert raises when the
// estimate spikes and clears only after it falls through the low
// watermark (hysteresis).
func Example() {
	r := monitor.NewRegistry()
	key := monitor.WatchKey{Tenant: "default", Query: "fraud"}
	if err := r.Register(key, monitor.WatchConfig{High: 100, Low: 20}); err != nil {
		panic(err)
	}
	for _, estimate := range []int64{150, 70, 10} { // raise, hold, clear
		st, flipped, err := r.Observe(key, estimate)
		if err != nil {
			panic(err)
		}
		if flipped {
			fmt.Printf("-> %s at estimate %d\n", st.State, estimate)
		}
	}
	// Output:
	// -> ALERT at estimate 150
	// -> normal at estimate 10
}
