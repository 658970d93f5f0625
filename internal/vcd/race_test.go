//go:build race

package vcd

func init() { raceBuild = true }
