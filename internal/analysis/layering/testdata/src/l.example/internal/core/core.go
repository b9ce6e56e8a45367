// Package core stands for the paper-reproduction oracles.
package core

type WSD struct{}
