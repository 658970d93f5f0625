//go:build race

package lightdblike

func init() { raceBuild = true }
