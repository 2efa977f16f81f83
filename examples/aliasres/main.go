// Alias resolution example: scan a small simulated ISP twice, validate the
// responses, and resolve which IPv4 and IPv6 addresses belong to the same
// routers — including dual-stack aliases, the capability no prior
// technique offered (paper Section 5).
//
//	go run ./examples/aliasres
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"snmpv3fp"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

func main() {
	w := netsim.Generate(netsim.TinyConfig(42))
	day := 24 * time.Hour

	scan := func(at time.Duration, seed int64) *snmpv3fp.Campaign {
		w.Clock.Set(w.Cfg.StartTime.Add(at))
		w.BeginScan()
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), seed)
		if err != nil {
			log.Fatal(err)
		}
		c, err := snmpv3fp.ScanContext(context.Background(), w.NewTransport(), targets, snmpv3fp.ScanConfig{
			Rate: 5000, Clock: w.Clock, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	scanV6 := func(at time.Duration, seed int64) *snmpv3fp.Campaign {
		w.Clock.Set(w.Cfg.StartTime.Add(at))
		w.BeginScan()
		targets, err := scanner.NewListSpace(w.HitlistV6(), seed)
		if err != nil {
			log.Fatal(err)
		}
		c, err := snmpv3fp.ScanContext(context.Background(), w.NewTransport(), targets, snmpv3fp.ScanConfig{
			Rate: 20000, Clock: w.Clock, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Two campaigns per family, days apart, exactly as the paper runs.
	v61, v62 := scanV6(12*day, 11), scanV6(13*day, 12)
	v41, v42 := scan(15*day, 13), scan(21*day, 14)
	fmt.Printf("IPv4 campaigns: %d / %d responsive IPs\n", len(v41.ByIP), len(v42.ByIP))
	fmt.Printf("IPv6 campaigns: %d / %d responsive IPs\n", len(v61.ByIP), len(v62.ByIP))

	// Validate each family, then resolve aliases over the union.
	rep4 := snmpv3fp.Validate(v41, v42)
	rep6 := snmpv3fp.Validate(v61, v62)
	fmt.Printf("validated: %d IPv4 + %d IPv6 IPs with consistent identifiers\n",
		len(rep4.Valid), len(rep6.Valid))

	combined := append(append([]*snmpv3fp.Merged{}, rep4.Valid...), rep6.Valid...)
	sets := snmpv3fp.ResolveAliases(combined, snmpv3fp.DefaultAliasVariant)

	var dual int
	fmt.Println("\nlargest dual-stack routers:")
	for _, s := range sets {
		if s.Family().String() != "dual-stack" {
			continue
		}
		dual++
		if dual <= 3 {
			fp := snmpv3fp.FingerprintEngineID(s.Members[0].EngineID)
			fmt.Printf("  device %s (%d interfaces): ", fp.VendorLabel(), s.Size())
			for i, m := range s.Members {
				if i == 6 {
					fmt.Printf("… ")
					break
				}
				fmt.Printf("%v ", m.IP)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%d alias sets total, %d dual-stack\n", len(sets), dual)
}
