// Package worlds stands for the per-world reference evaluator.
package worlds

type WorldSet struct{}
