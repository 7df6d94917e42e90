package faultinject

import "whatsnext/internal/wncheck"

// CrossValidateNaive is CrossValidate with every selected kill resolved by
// its own run from reset: the oracle the trunk/fork walk must reproduce
// byte for byte.
func CrossValidateNaive(t Target, cfg CrossConfig, cert *wncheck.Certificate) (*CrossReport, error) {
	return crossValidate(t, cfg, cert, true)
}
