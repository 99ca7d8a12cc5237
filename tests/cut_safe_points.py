"""Sample points where principal logs agree with hypzeta's branches.

At these 20 points in Re s in [0.12, 0.48], Im s < 0, principal-branch
evaluation of both sides of the cone-factor ratio and archimedean
four-point identities agrees for the three surfaces of
`hypzeta.verify.identity_pairs`. Tests that compare against principal logs on purpose
sample here; verify itself samples its unscreened `IDENTITY_GRID`.
"""

CUT_SAFE_POINTS = (
    complex(0.12, -3.0),
    complex(0.12, -1.0667),
    complex(0.1504, -2.0333),
    complex(0.1808, -3.0),
    complex(0.1808, -0.8733),
    complex(0.2112, -1.84),
    complex(0.2416, -2.8067),
    complex(0.2416, -0.68),
    complex(0.272, -1.6467),
    complex(0.3024, -2.6133),
    complex(0.3024, -0.68),
    complex(0.3328, -1.6467),
    complex(0.3632, -2.6133),
    complex(0.3632, -0.4867),
    complex(0.3936, -1.4533),
    complex(0.424, -2.42),
    complex(0.424, -0.2933),
    complex(0.4544, -1.26),
    complex(0.4848, -2.2267),
    complex(0.4848, -0.1),
)
