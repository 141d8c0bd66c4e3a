package agg

// ParkedThreads reports how many of s's aggregator threads are parked
// and how many it runs, for tests that stage work at the moment every
// thread depends on being woken.
func ParkedThreads(s Strategy) (parked, threads int) {
	var d *driver
	switch s := s.(type) {
	case *Aggregator:
		d = s.driver
	case *Archive:
		d = s.driver
	}
	return d.work.Parked(), len(d.consume)
}
