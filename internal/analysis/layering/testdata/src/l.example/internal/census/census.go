// Package census is the one workload package the server may link.
package census

const Rows = 1
