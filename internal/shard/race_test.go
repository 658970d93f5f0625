//go:build race

package shard_test

func init() { raceBuild = true }
