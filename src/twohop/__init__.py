"""End-to-end SNR and symbol error rate of two-hop amplified relay links.

The library models each hop's post-combining SNR as a Gamma law (or the
max of Gamma laws for antenna selection), composes the two hops into the
end-to-end equivalent SNR by adaptive quadrature, and evaluates M-PSK
symbol error rates from the resulting CDF.  A branch-level Monte-Carlo
simulator provides an independent cross-check for every analytical path.
"""

__version__ = "0.1.0"
