package service

import "warped/internal/fault"

// ToFault exposes the wire-to-injectable fault conversion the worker
// uses, so the external tests can replay a canonical job directly.
func ToFault(fd FaultDef) (*fault.Fault, error) { return fd.toFault() }
