package obs

import "testing"

// BenchmarkNow pins the cost of the monotonic clock read every sampled
// latency probe pays.
func BenchmarkNow(b *testing.B) {
	var s int64
	for i := 0; i < b.N; i++ {
		s += Now()
	}
	sink = s
}

var sink int64
