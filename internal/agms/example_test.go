package agms_test

import (
	"fmt"

	"skimsketch/internal/agms"
)

// Basic AGMS sketching: the baseline the skimmed sketch improves on.
func ExampleJoinEstimate() {
	f := agms.MustNew(16, 5, 7)
	g := agms.MustNew(16, 5, 7) // same dims+seed ⇒ join pair
	f.Update(3, 12)
	g.Update(3, 4)
	est, err := agms.JoinEstimate(f, g)
	if err != nil {
		panic(err)
	}
	fmt.Println(est)
	// Output: 48
}
