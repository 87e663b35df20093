package cluster

// IntegrateWork is Integrate returning the kernel's work counts beside the
// result: merges made, candidates met and similarity evaluations.
func IntegrateWork(gen *IDGen, micros []*Cluster, opts IntegrateOptions) (out []*Cluster, merges, met, sims int) {
	out, w := integrateCore(micros, opts, gen)
	return out, w.merges, w.met, w.sims
}
